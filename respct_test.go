// Facade tests: exercise the library exclusively through the public API at
// the module root, exactly as a downstream importer would.
package respct_test

import (
	"bytes"
	"testing"
	"time"

	respct "github.com/respct/respct"
)

func TestFacadeCounterLifecycle(t *testing.T) {
	heap := respct.NewHeap(respct.NVMM(16 << 20))
	rt, err := respct.New(heap, respct.Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.Thread(0)
	block := rt.Arena().AllocCells(th, 1)
	counter := respct.Cell(block, 0)
	th.Init(counter, 0)
	th.Update(rt.RootInCLL(1), uint64(block))
	for i := 0; i < 100; i++ {
		th.Update(counter, rt.Read(counter)+1)
		th.RP(1)
	}
	rt.CheckpointIdle()
	th.Update(counter, 9999)
	heap.EvictAll()
	heap.Crash()

	rt2, rep, err := respct.Recover(heap, respct.Config{Threads: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedEpoch == 0 {
		t.Fatal("no failed epoch reported")
	}
	c2 := respct.Cell(rt2.ReadAddr(rt2.RootInCLL(1)), 0)
	if got := rt2.Read(c2); got != 100 {
		t.Fatalf("recovered counter = %d, want 100", got)
	}
}

func TestFacadeStructures(t *testing.T) {
	heap := respct.NewHeap(respct.NVMM(64 << 20))
	rt, err := respct.New(heap, respct.Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := respct.NewMap(rt, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	q, err := respct.NewQueue(rt, 1)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := respct.NewSkipList(rt, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		m.Insert(0, i, i*2)
		q.Enqueue(0, i)
		sl.Insert(0, i*10, i)
	}
	rt.CheckpointIdle()
	heap.Crash()

	rt2, _, err := respct.Recover(heap, respct.Config{Threads: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := respct.OpenMap(rt2, 0)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := respct.OpenQueue(rt2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sl2, err := respct.OpenSkipList(rt2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m2.Get(0, 25); !ok || v != 50 {
		t.Fatalf("map key 25 = %d,%v", v, ok)
	}
	if v, ok := q2.Dequeue(0); !ok || v != 1 {
		t.Fatalf("queue head = %d,%v", v, ok)
	}
	sum := uint64(0)
	sl2.Scan(0, 100, 200, func(k, v uint64) bool { sum += v; return true })
	if sum != 10+11+12+13+14+15+16+17+18+19+20 {
		t.Fatalf("skiplist scan sum = %d", sum)
	}
}

func TestFacadeSnapshotRoundTrip(t *testing.T) {
	heap := respct.NewHeap(respct.NVMM(32 << 20))
	rt, err := respct.New(heap, respct.Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := respct.NewMap(rt, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	m.Insert(0, 7, 77)
	rt.CheckpointIdle()

	var img bytes.Buffer
	heap.Store64(heap.RootAddr(9), 123) // dirty, never flushed: not part of the snapshot
	if err := respct.WriteSnapshot(&img, heap); err != nil {
		t.Fatal(err)
	}
	// Garbage, nothing and a truncated container are refused, with no heap.
	for _, bad := range [][]byte{[]byte("not a snapshot at all"), nil, img.Bytes()[:img.Len()/2]} {
		if h, err := respct.OpenSnapshot(bytes.NewReader(bad), respct.NVMM(0)); err == nil || h != nil {
			t.Fatalf("OpenSnapshot(%d bytes of junk) = %v, %v", len(bad), h, err)
		}
	}
	h2, err := respct.OpenSnapshot(&img, respct.NVMM(0))
	if err != nil {
		t.Fatal(err)
	}
	if h2.Size() != heap.Size() {
		t.Fatalf("snapshot of a %d-byte heap opened as %d bytes", heap.Size(), h2.Size())
	}
	if got := h2.Root(9); got != 0 {
		t.Fatalf("unflushed store leaked into the snapshot: %d", got)
	}
	rt2, _, err := respct.Recover(h2, respct.Config{Threads: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := respct.OpenMap(rt2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m2.Get(0, 7); !ok || v != 77 {
		t.Fatalf("snapshot round trip lost data: %d,%v", v, ok)
	}
}

func TestFacadeLog(t *testing.T) {
	heap := respct.NewHeap(respct.NVMM(32 << 20))
	rt, err := respct.New(heap, respct.Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := respct.NewLog(rt, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Append(0, []byte{byte('a' + i)})
	}
	rt.CheckpointIdle()
	l.Append(0, []byte("doomed"))
	heap.Crash()
	rt2, _, err := respct.Recover(heap, respct.Config{Threads: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := respct.OpenLog(rt2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 10 {
		t.Fatalf("recovered %d records, want 10", l2.Len())
	}
}

func TestFacadeCheckpointerHelper(t *testing.T) {
	heap := respct.NewHeap(respct.EADR(16 << 20))
	rt, err := respct.New(heap, respct.Config{Threads: 1, SkipFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.Thread(0).CheckpointAllow()
	ck := respct.StartCheckpointing(rt, 2*time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	ck.Stop()
	if rt.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoints")
	}
}
