package pmem

import (
	"sync"
	"sync/atomic"
	"testing"
)

func testHeap(t *testing.T, cfg Config) *Heap {
	t.Helper()
	if cfg.Size == 0 {
		cfg.Size = 1 << 20
	}
	return New(cfg)
}

func TestNewInitialisesSuperblock(t *testing.T) {
	h := testHeap(t, Config{})
	if err := h.CheckMagic(); err != nil {
		t.Fatal(err)
	}
	if got := h.Load64(h.EpochAddr()); got != 0 {
		t.Fatalf("initial epoch = %d, want 0", got)
	}
	if h.DataStart()%LineSize != 0 {
		t.Fatalf("DataStart %#x not line aligned", uint64(h.DataStart()))
	}
	if h.DataStart() != Addr((1+NumRoots)*LineSize) {
		t.Fatalf("DataStart = %#x, want %#x", uint64(h.DataStart()), (1+NumRoots)*LineSize)
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	h := testHeap(t, Config{})
	a := h.DataStart()
	h.Store64(a, 0xdeadbeefcafef00d)
	if got := h.Load64(a); got != 0xdeadbeefcafef00d {
		t.Fatalf("Load64 = %#x", got)
	}
	// Not yet persistent.
	if got := h.LoadPersistent64(a); got != 0 {
		t.Fatalf("persistent image = %#x before flush, want 0", got)
	}
}

func TestFlusherPersists(t *testing.T) {
	h := testHeap(t, Config{})
	f := h.NewFlusher()
	a := h.DataStart()
	h.Store64(a, 42)
	f.CLWB(a)
	if got := h.LoadPersistent64(a); got != 0 {
		t.Fatalf("CLWB alone persisted the line (got %d); it must be asynchronous until SFence", got)
	}
	f.SFence()
	if got := h.LoadPersistent64(a); got != 42 {
		t.Fatalf("after SFence persistent = %d, want 42", got)
	}
	if f.Flushes() != 1 || f.Fences() != 1 {
		t.Fatalf("flusher counters = %d/%d, want 1/1", f.Flushes(), f.Fences())
	}
}

func TestSFenceCoalescesDuplicateLines(t *testing.T) {
	h := testHeap(t, Config{})
	f := h.NewFlusher()
	a := h.DataStart()
	h.Store64(a, 1)
	h.Store64(a+8, 2)
	f.CLWB(a)
	f.CLWB(a + 8) // same line
	f.CLWB(a)
	f.SFence()
	if f.Flushes() != 1 {
		t.Fatalf("flushes = %d, want 1 (coalesced)", f.Flushes())
	}
	if h.LoadPersistent64(a) != 1 || h.LoadPersistent64(a+8) != 2 {
		t.Fatal("line content not persisted correctly")
	}
}

func TestPersistRange(t *testing.T) {
	h := testHeap(t, Config{})
	f := h.NewFlusher()
	a := h.DataStart()
	for i := 0; i < 40; i++ {
		h.Store64(a+Addr(i*8), uint64(i+1))
	}
	f.PersistRange(a, 40*8) // 320 bytes = 5 lines
	if f.Flushes() != 5 {
		t.Fatalf("flushes = %d, want 5", f.Flushes())
	}
	for i := 0; i < 40; i++ {
		if got := h.LoadPersistent64(a + Addr(i*8)); got != uint64(i+1) {
			t.Fatalf("word %d = %d", i, got)
		}
	}
}

func TestCrashDiscardsVolatile(t *testing.T) {
	h := testHeap(t, Config{})
	f := h.NewFlusher()
	a := h.DataStart()
	h.Store64(a, 7)
	f.Persist(a)
	h.Store64(a, 8) // never flushed
	h.Crash()
	// Write-backs after the crash must not reach the media.
	f.Persist(a)
	h.EvictAll()
	h.Reopen()
	if got := h.Load64(a); got != 7 {
		t.Fatalf("after crash+reopen value = %d, want 7 (pre-crash flushed value)", got)
	}
}

func TestEvictionPersistsWithoutFlush(t *testing.T) {
	h := testHeap(t, Config{})
	a := h.DataStart()
	h.Store64(a, 99)
	if n := h.EvictAll(); n == 0 {
		t.Fatal("EvictAll wrote back nothing despite a dirty line")
	}
	if got := h.LoadPersistent64(a); got != 99 {
		t.Fatalf("persistent = %d after eviction, want 99", got)
	}
	// A second EvictAll finds nothing dirty.
	if n := h.EvictAll(); n != 0 {
		t.Fatalf("second EvictAll evicted %d lines, want 0", n)
	}
}

func TestSameLinePCSOOrdering(t *testing.T) {
	// PCSO: if the later of two same-line stores is persistent, the earlier
	// one must be too. Our write-back copies whole lines, so after any
	// single eviction either both or neither store is visible, or only the
	// earlier one if eviction interleaved between them — never only the
	// later one. Exercise the interleavings explicitly.
	h := testHeap(t, Config{})
	a := h.DataStart()
	backup := a     // word 0: "backup"
	record := a + 8 // word 1: "record" (same line)

	h.Store64(backup, 10)
	h.EvictAll() // eviction between the two stores: only backup persists
	h.Store64(record, 20)
	if b, r := h.LoadPersistent64(backup), h.LoadPersistent64(record); !(b == 10 && r == 0) {
		t.Fatalf("mid-eviction image = backup %d record %d, want 10/0", b, r)
	}
	h.EvictAll()
	if b, r := h.LoadPersistent64(backup), h.LoadPersistent64(record); !(b == 10 && r == 20) {
		t.Fatalf("final image = backup %d record %d, want 10/20", b, r)
	}
}

func TestDifferentLinesCanPersistOutOfOrder(t *testing.T) {
	h := testHeap(t, Config{})
	a := h.DataStart()
	first := a             // line 0 of the region
	second := a + LineSize // next line
	h.Store64(first, 1)
	h.Store64(second, 2)
	// Evict only the second line: the later store reaches NVMM first.
	h.EvictLine(LineOf(second))
	if got := h.LoadPersistent64(second); got != 2 {
		t.Fatalf("second = %d, want 2", got)
	}
	if got := h.LoadPersistent64(first); got != 0 {
		t.Fatalf("first = %d, want 0 (not yet written back)", got)
	}
}

func TestCAS64(t *testing.T) {
	h := testHeap(t, Config{})
	a := h.DataStart()
	h.Store64(a, 5)
	if h.CAS64(a, 4, 6) {
		t.Fatal("CAS succeeded with wrong expected value")
	}
	if !h.CAS64(a, 5, 6) {
		t.Fatal("CAS failed with correct expected value")
	}
	if got := h.Load64(a); got != 6 {
		t.Fatalf("after CAS value = %d", got)
	}
}

func TestAdd64(t *testing.T) {
	h := testHeap(t, Config{})
	a := h.DataStart()
	if got := h.Add64(a, 3); got != 3 {
		t.Fatalf("Add64 = %d, want 3", got)
	}
	if got := h.Add64(a, ^uint64(0)); got != 2 { // add -1
		t.Fatalf("Add64 = %d, want 2", got)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	h := testHeap(t, Config{})
	a := h.DataStart()
	msg := []byte("hello, persistent world! 0123456789")
	h.StoreBytes(a, msg)
	if got := string(h.LoadBytes(a, len(msg))); got != string(msg) {
		t.Fatalf("LoadBytes = %q", got)
	}
	f := h.NewFlusher()
	f.PersistRange(a, len(msg))
	if got := string(h.LoadPersistentBytes(a, len(msg))); got != string(msg) {
		t.Fatalf("LoadPersistentBytes = %q", got)
	}
}

func TestRoots(t *testing.T) {
	h := testHeap(t, Config{})
	h.SetRoot(0, 111)
	h.SetRoot(NumRoots-1, 222)
	if h.Root(0) != 111 || h.Root(NumRoots-1) != 222 {
		t.Fatal("root round trip failed")
	}
	// Roots are line-separated so wrapping them in InCLL is safe.
	if LineOf(h.RootAddr(0)) == LineOf(h.RootAddr(1)) {
		t.Fatal("adjacent roots share a cache line")
	}
}

func TestRootAddrPanicsOutOfRange(t *testing.T) {
	h := testHeap(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range root")
		}
	}()
	h.RootAddr(NumRoots)
}

func TestUnalignedAccessPanics(t *testing.T) {
	h := testHeap(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unaligned address")
		}
	}()
	h.Load64(h.DataStart() + 3)
}

func TestAlignUp(t *testing.T) {
	cases := []struct{ in, align, want uint64 }{
		{0, 64, 0}, {1, 64, 64}, {63, 64, 64}, {64, 64, 64}, {65, 64, 128},
		{7, 8, 8}, {8, 8, 8},
	}
	for _, c := range cases {
		if got := AlignUp(Addr(c.in), c.align); got != Addr(c.want) {
			t.Errorf("AlignUp(%d,%d) = %d, want %d", c.in, c.align, got, c.want)
		}
	}
}

func TestReopenWithoutCrashPanics(t *testing.T) {
	h := testHeap(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Reopen without Crash")
		}
	}()
	h.Reopen()
}

func TestStatsCounting(t *testing.T) {
	h := testHeap(t, Config{})
	f := h.NewFlusher()
	a := h.DataStart()
	h.Store64(a, 1)
	f.Persist(a)
	h.Store64(a+LineSize, 2)
	h.EvictAll()
	s := h.Stats()
	if s.Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", s.Flushes)
	}
	if s.Fences != 1 {
		t.Errorf("Fences = %d, want 1", s.Fences)
	}
	if s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions)
	}
}

func TestLatencyPenaltiesRun(t *testing.T) {
	// Penalties must not change semantics, only burn time.
	h := testHeap(t, Config{LoadPenalty: 5, StorePenalty: 5, FlushPenalty: 5, FencePenalty: 5})
	f := h.NewFlusher()
	a := h.DataStart()
	h.Store64(a, 9)
	if h.Load64(a) != 9 {
		t.Fatal("round trip with penalties failed")
	}
	f.Persist(a)
	if h.LoadPersistent64(a) != 9 {
		t.Fatal("persist with penalties failed")
	}
}

func TestEADRCrashPreservesVolatile(t *testing.T) {
	h := New(EADRConfig(1 << 20))
	a := h.DataStart()
	h.Store64(a, 77) // never flushed — the battery must save it
	h.Crash()
	h.Reopen()
	if got := h.Load64(a); got != 77 {
		t.Fatalf("eADR crash lost an unflushed store: %d", got)
	}
}

func TestEADRConfigDisablesFlushCost(t *testing.T) {
	c := EADRConfig(1 << 20)
	if !c.EADR || c.FlushPenalty != 0 || c.FencePenalty != 0 {
		t.Fatalf("EADRConfig misconfigured: %+v", c)
	}
	// Ordinary NVMM crash still discards unflushed data (contrast case).
	h := New(NVMMConfig(1 << 20))
	a := h.DataStart()
	h.Store64(a, 77)
	h.Crash()
	h.Reopen()
	if got := h.Load64(a); got != 0 {
		t.Fatalf("non-eADR crash preserved an unflushed store: %d", got)
	}
}

func TestChaosCAS(t *testing.T) {
	h := New(Config{Size: 1 << 20, Chaos: true})
	a := h.DataStart()
	h.Store64(a, 1)
	if !h.CAS64(a, 1, 2) || h.Load64(a) != 2 {
		t.Fatal("chaos CAS failed")
	}
	if h.CAS64(a, 1, 3) {
		t.Fatal("chaos CAS succeeded with stale expected value")
	}
}

// countObs counts the events it receives.
type countObs struct{ n atomic.Int64 }

func (c *countObs) Event(TraceEvent) { c.n.Add(1) }

// TestObserveFanOut: an observer sees exactly the kinds it asked for, from
// every goroutine, while other observers attach and detach under the
// stores; once detached it sees nothing more.
func TestObserveFanOut(t *testing.T) {
	h := testHeap(t, Config{})
	stores, queues := &countObs{}, &countObs{}
	detach := h.Observe(stores, EvStore)
	h.Observe(queues, EvQueue)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(a Addr) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Store64(a, uint64(i))
			}
		}(h.DataStart() + Addr(g*LineSize))
	}
	for i := 0; i < 100; i++ {
		h.Observe(&countObs{}, EvStore, EvWriteBack)()
	}
	wg.Wait()
	if got := stores.n.Load(); got != 4000 {
		t.Fatalf("store observer saw %d events, want 4000", got)
	}
	detach()
	detach()
	h.Store64(h.DataStart(), 1)
	h.NewFlusher().Persist(h.DataStart())
	if s, q := stores.n.Load(), queues.n.Load(); s != 4000 || q != 1 {
		t.Fatalf("after detach: %d stores, %d queues observed, want 4000 and 1", s, q)
	}
}
