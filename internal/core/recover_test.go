package core

import (
	"errors"
	"testing"

	"github.com/respct/respct/internal/pmem"
)

// crashAndRecover simulates a crash with a given fraction of dirty lines
// already evicted to NVMM, then recovers.
func crashAndRecover(t *testing.T, rt *Runtime, threads int, evictFrac float64, seed int64, parallelism int) (*Runtime, *RecoveryReport) {
	t.Helper()
	h := rt.Heap()
	if evictFrac >= 1 {
		h.EvictAll()
	} else if evictFrac > 0 {
		h.EvictDirtyFraction(evictFrac, seed)
	}
	h.Crash()
	rt2, rep, err := Recover(h, Config{Threads: threads}, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return rt2, rep
}

func TestRecoverRollsBackCrashedEpoch(t *testing.T) {
	for _, frac := range []float64{0, 0.3, 0.7, 1} {
		rt := newTestRuntime(t, 1, 0)
		th := rt.Thread(0)
		p := rt.Arena().AllocCells(th, 2)
		a, b := Cell(p, 0), Cell(p, 1)
		th.Init(a, 10)
		th.Init(b, 20)
		mustCheckpointSolo(t, rt) // epoch 2 -> 3, values 10/20 durable

		th.Update(a, 11) // epoch 3 work, doomed
		th.Update(b, 21)
		rt2, rep := crashAndRecover(t, rt, 1, frac, 99, 1)
		if rep.FailedEpoch != 3 {
			t.Fatalf("frac %v: failed epoch %d", frac, rep.FailedEpoch)
		}
		if got := rt2.Read(a); got != 10 {
			t.Fatalf("frac %v: a = %d, want 10", frac, got)
		}
		if got := rt2.Read(b); got != 20 {
			t.Fatalf("frac %v: b = %d, want 20", frac, got)
		}
		if rt2.Epoch() != 3 {
			t.Fatalf("frac %v: resumed epoch = %d, want 3 (the failed epoch)", frac, rt2.Epoch())
		}
	}
}

func TestRecoverKeepsCompletedEpochs(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	p := rt.Arena().AllocCells(th, 1)
	v := Cell(p, 0)
	th.Init(v, 1)
	mustCheckpointSolo(t, rt)
	th.Update(v, 2)
	mustCheckpointSolo(t, rt)
	th.Update(v, 3)
	mustCheckpointSolo(t, rt) // 3 is durable
	th.Update(v, 4)           // doomed
	rt2, _ := crashAndRecover(t, rt, 1, 0.5, 7, 1)
	if got := rt2.Read(v); got != 3 {
		t.Fatalf("recovered %d, want 3", got)
	}
}

func TestRecoverIsIdempotentAcrossRepeatedCrashes(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	p := rt.Arena().AllocCells(th, 1)
	v := Cell(p, 0)
	th.Init(v, 100)
	mustCheckpointSolo(t, rt)
	th.Update(v, 200)
	rt2, _ := crashAndRecover(t, rt, 1, 0.6, 3, 1)
	if rt2.Read(Cell(p, 0)) != 100 {
		t.Fatal("first recovery wrong")
	}
	// Crash again immediately, before any checkpoint in the resumed epoch.
	th2 := rt2.Thread(0)
	th2.Update(Cell(p, 0), 300)
	rt3, rep := crashAndRecover(t, rt2, 1, 0.6, 4, 1)
	if rep.FailedEpoch != 3 {
		t.Fatalf("second crash failed epoch = %d, want 3", rep.FailedEpoch)
	}
	if got := rt3.Read(Cell(p, 0)); got != 100 {
		t.Fatalf("second recovery = %d, want 100", got)
	}
}

func TestRecoverMakesPersistentImageConsistent(t *testing.T) {
	// Recovery flushes rolled-back cells, so the persistent image itself
	// holds the checkpointed state right after recovery.
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	p := rt.Arena().AllocCells(th, 1)
	v := Cell(p, 0)
	th.Init(v, 5)
	mustCheckpointSolo(t, rt)
	th.Update(v, 6)
	rt.Heap().EvictAll() // crashed value 6 is in NVMM
	rt.Heap().Crash()
	rt2, _, err := Recover(rt.Heap(), Config{Threads: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt2.Heap().LoadPersistent64(v.Addr()); got != 5 {
		t.Fatalf("persistent record after recovery = %d, want 5", got)
	}
}

func TestRecoverAllocatorRollback(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	p1 := rt.Arena().AllocCells(th, 1)
	th.Init(Cell(p1, 0), 1)
	mustCheckpointSolo(t, rt)
	usedBefore := rt.Arena().Stats().Used

	// Allocate more in the epoch that will crash.
	for i := 0; i < 10; i++ {
		p := rt.Arena().AllocCells(th, 4)
		if p == pmem.NilAddr {
			t.Fatal("alloc failed")
		}
		th.Init(Cell(p, 0), uint64(i))
	}
	rt2, _ := crashAndRecover(t, rt, 1, 0.5, 11, 1)
	if got := rt2.Arena().Stats().Used; got != usedBefore {
		t.Fatalf("arena used after recovery = %d, want %d (crashed carves rolled back)", got, usedBefore)
	}
	// The surviving block is intact and the allocator can carve again.
	if got := rt2.Read(Cell(p1, 0)); got != 1 {
		t.Fatalf("survivor cell = %d", got)
	}
	th2 := rt2.Thread(0)
	p2 := rt2.Arena().AllocCells(th2, 1)
	if p2 == pmem.NilAddr {
		t.Fatal("post-recovery alloc failed")
	}
	th2.Init(Cell(p2, 0), 77)
	if rt2.Read(Cell(p2, 0)) != 77 {
		t.Fatal("post-recovery block unusable")
	}
}

func TestFreeIsDeferredToNextEpoch(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	p := rt.Arena().AllocCells(th, 1)
	th.Init(Cell(p, 0), 42)
	rt.Arena().Free(th, p)
	// Same epoch: the block must not be recycled.
	q := rt.Arena().AllocCells(th, 1)
	if q == p {
		t.Fatal("block recycled in the epoch that freed it")
	}
	mustCheckpointSolo(t, rt)
	// Next epoch: now it may be recycled.
	r := rt.Arena().AllocCells(th, 1)
	if r != p {
		t.Fatalf("block not recycled after checkpoint: got %#x, want %#x", uint64(r), uint64(p))
	}
}

func TestFreeRolledBackOnCrash(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	p := rt.Arena().AllocCells(th, 1)
	th.Init(Cell(p, 0), 42)
	mustCheckpointSolo(t, rt) // block durable, epoch 2

	rt.Arena().Free(th, p)
	mustCheckpointSolo(t, rt) // free applied at start of epoch 3, not yet durable...
	// The push itself happened in epoch 3; crash epoch 3: push rolls back.
	rt2, _ := crashAndRecover(t, rt, 1, 1, 5, 1)
	th2 := rt2.Thread(0)
	// The block is NOT on the free list (push rolled back): allocating the
	// same class must carve fresh, and p's contents are intact.
	q := rt2.Arena().AllocCells(th2, 1)
	if q == p {
		t.Fatal("rolled-back free still recycled the block")
	}
	if got := rt2.Read(Cell(p, 0)); got != 42 {
		t.Fatalf("freed-then-rolled-back block content = %d, want 42", got)
	}
}

func TestRecycleDifferentLayoutCrashSafe(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	// Block with 2 cells (class 64*... header 64 + 64 payload -> class 1: 128B).
	p := rt.Arena().Alloc(th, 2, 0)
	th.Init(Cell(p, 0), 7)
	th.Init(Cell(p, 1), 8)
	rt.Arena().Free(th, p)
	mustCheckpointSolo(t, rt)
	mustCheckpointSolo(t, rt) // free push durable

	// Recycle as raw block (same class, different shape) in an epoch that
	// crashes: the layout change must roll back so the recovery scan walks
	// the region with the old shape and cannot misinterpret the torn raw
	// payload as live cells.
	q := rt.Arena().Alloc(th, 0, 8)
	if q != p {
		t.Fatalf("expected recycle of %#x, got %#x", uint64(p), uint64(q))
	}
	th.StoreTracked(q, 0xFFFFFFFFFFFFFFFF)
	rt2, _ := crashAndRecover(t, rt, 1, 1, 13, 1)
	th2 := rt2.Thread(0)
	// The recovery scan must have used the rolled-back 2-cell layout.
	h := rt2.Heap()
	gotLayout := h.Load64(p - 64 + 24) // header layout record
	if class, cells, raw := unpackLayout(gotLayout); cells != 2 || raw != 0 {
		t.Fatalf("layout after recovery = class %d cells %d raw %d, want 2 cells", class, cells, raw)
	}
	// The block itself leaks (its free lived only in the crashed process's
	// magazine) — a fresh allocation must not alias it, and the recovered
	// heap stays fully operational.
	r := rt2.Arena().Alloc(th2, 2, 0)
	if r == p {
		t.Fatalf("leaked block %#x was handed out again", uint64(p))
	}
	th2.Init(Cell(r, 0), 1)
	th2.Init(Cell(r, 1), 2)
	if rt2.Read(Cell(r, 0)) != 1 || rt2.Read(Cell(r, 1)) != 2 {
		t.Fatal("post-recovery allocation unusable")
	}
}

func TestRecoverUnformattedHeapFails(t *testing.T) {
	h := pmem.New(pmem.Config{Size: 8 << 20})
	h.Crash()
	if _, _, err := Recover(h, Config{Threads: 1}, 1); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("Recover on an unformatted heap: %v, want ErrNotFormatted", err)
	}
}

func TestRecoverParallelMatchesSerial(t *testing.T) {
	build := func() *Runtime {
		h := pmem.New(pmem.Config{Size: 32 << 20, Seed: 5})
		rt, err := NewRuntime(h, Config{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		th := rt.Thread(0)
		var cells []InCLL
		for i := 0; i < 500; i++ {
			p := rt.Arena().AllocCells(th, 2)
			c := Cell(p, 0)
			th.Init(c, uint64(i))
			cells = append(cells, c)
		}
		mustCheckpointSolo(t, rt)
		for i, c := range cells {
			if i%3 == 0 {
				th.Update(c, uint64(i)+1000)
			}
		}
		rt.Heap().EvictDirtyFraction(0.5, 77)
		rt.Heap().Crash()
		return rt
	}

	rtSerial := build()
	serial, repS, err := Recover(rtSerial.Heap(), Config{Threads: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rtPar := build()
	parallel, repP, err := Recover(rtPar.Heap(), Config{Threads: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if repS.CellsScanned != repP.CellsScanned {
		t.Fatalf("scanned %d vs %d cells", repS.CellsScanned, repP.CellsScanned)
	}
	// Both recoveries must land on identical persistent state for the data
	// region (same deterministic pre-crash image).
	h1, h2 := serial.Heap(), parallel.Heap()
	for a := serial.Arena().DataBase(); a < pmem.Addr(h1.Size()); a += 8 {
		if v1, v2 := h1.Load64(a), h2.Load64(a); v1 != v2 {
			t.Fatalf("divergence at %#x: %d vs %d", uint64(a), v1, v2)
		}
	}
}

func TestRPIDRecoveredAcrossCrash(t *testing.T) {
	rt := newTestRuntime(t, 2, 0)
	t0, t1 := rt.Thread(0), rt.Thread(1)
	t0.Update(t0.RPID(), 1111)
	t1.Update(t1.RPID(), 2222)
	mustCheckpointSolo(t, rt)
	t0.Update(t0.RPID(), 3333) // doomed
	rt2, _ := crashAndRecover(t, rt, 2, 1, 9, 1)
	if got := rt2.Read(rt2.Thread(0).RPID()); got != 1111 {
		t.Fatalf("thread 0 RP id = %d, want 1111", got)
	}
	if got := rt2.Read(rt2.Thread(1).RPID()); got != 2222 {
		t.Fatalf("thread 1 RP id = %d, want 2222", got)
	}
}

func TestRecoverGrowsThreadSet(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	th.Update(th.RPID(), 5)
	mustCheckpointSolo(t, rt)
	rt.Heap().Crash()
	// Recover with more threads than the original run.
	rt2, _, err := Recover(rt.Heap(), Config{Threads: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt2.Read(rt2.Thread(0).RPID()); got != 5 {
		t.Fatalf("old thread RP id = %d", got)
	}
	// New threads got fresh cells.
	if rt2.Thread(2).RPID().IsNil() {
		t.Fatal("new thread has no RP cell")
	}
}
