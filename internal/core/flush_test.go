package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/respct/respct/internal/pmem"
)

// flushCase is one seeded input to the flush engine: which lists hold which
// addresses when the checkpoint starts.
type flushCase struct {
	name  string
	lists int  // threads that track addresses (1-8)
	addrs int  // tracked stores in the epoch
	dups  bool // a third of the lines are tracked by a second list too
	dead  int  // blocks written and freed inside the epoch (dead ranges)
	skew  bool // list 0 holds 95 % of the addresses
	dense bool // contiguous lines from an odd line: chunk borders split bitmap words
}

var flushCases = []flushCase{
	{name: "two-cells", lists: 1, addrs: 2},
	{name: "one-list", lists: 1, addrs: 40000},
	{name: "eight-lists-dups-dead", lists: 8, addrs: 40000, dups: true, dead: 300},
	{name: "skewed-95", lists: 5, addrs: 40000, dups: true, dead: 50, skew: true},
	{name: "dense-split-words", lists: 3, addrs: 40000, dups: true, dense: true},
}

const (
	flushTestHeap    = 8 << 20
	flushTestRegion  = 4<<20 - headerSize // raw bytes the cases scatter their lines over: one 4 MiB block
	flushTestThreads = 8
	flushDeadLines   = 4 // payload lines of a block freed inside the epoch
	flushCutWord     = 7 // line word the async test overwrites after the cut
)

// populate formats a runtime on a fresh heap and replays c's epoch on it from
// one goroutine: the same (c, cfg.AsyncFlush) always leaves the same volatile
// image and the same lists. Thread i's stores go to word i of a line, so a
// line tracked by two lists holds both values. It returns the line-aligned
// addresses of the live (not freed) lines it stored to, in store order.
func populate(t *testing.T, c flushCase, cfg Config) (*Runtime, []pmem.Addr) {
	t.Helper()
	cfg.Threads = flushTestThreads
	rt, err := NewRuntime(pmem.New(pmem.Config{Size: flushTestHeap}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	region := rt.Arena().AllocRaw(rt.Thread(0), flushTestRegion/pmem.WordSize)
	if region == pmem.NilAddr {
		t.Fatal("heap too small for the test region")
	}
	mustCheckpointSolo(t, rt)
	rt.WaitDrain()

	rng := rand.New(rand.NewSource(int64(len(c.name))*7919 + int64(c.addrs)))
	base := pmem.LineOf(region)
	nLines := flushTestRegion / pmem.LineSize
	var stored []pmem.Addr
	store := func(tid, line int) {
		a := pmem.LineAddr(line)
		rt.Thread(tid).StoreTracked(a+pmem.Addr(tid*pmem.WordSize), uint64(line)<<8|uint64(tid))
		stored = append(stored, a)
	}
	for i := 0; i < c.addrs; i++ {
		tid := rng.Intn(c.lists)
		if c.skew && rng.Intn(100) < 95 {
			tid = 0
		}
		line := base + rng.Intn(nLines)
		if c.dense {
			line = base + 13 + i
		}
		store(tid, line)
		if c.dups && c.lists > 1 && i%3 == 0 {
			store((tid+1)%c.lists, line)
		}
	}
	for i := 0; i < c.dead; i++ {
		th := rt.Thread(i % c.lists)
		b := rt.Arena().AllocRaw(th, flushDeadLines*pmem.LineSize/pmem.WordSize)
		for l := 0; l < flushDeadLines; l++ {
			th.StoreTracked(b+pmem.Addr(l*pmem.LineSize), uint64(i))
		}
		rt.Arena().Free(th, b)
	}
	return rt, stored
}

// liveLines is the test's own count of what a flush owes NVMM: the distinct
// lines of every list that lie outside the epoch's dead ranges.
func liveLines(rt *Runtime) map[int]bool {
	deadLine := make(map[int]bool)
	for _, d := range rt.deadRanges() {
		for a := d.start; a < d.end; a += pmem.LineSize {
			deadLine[pmem.LineOf(a)] = true
		}
	}
	live := make(map[int]bool)
	for _, th := range rt.all {
		for _, a := range th.toFlush {
			if line := pmem.LineOf(a); !deadLine[line] {
				live[line] = true
			}
		}
	}
	return live
}

// imageHash fingerprints the persistent image outside the flight-recorder
// ring, whose entries carry wall-clock durations.
func imageHash(rt *Runtime) uint64 {
	h := rt.Heap()
	ringLo := rt.arena.flightHdrAddr()
	ringHi := ringLo + flightRingLines*pmem.LineSize
	f := fnv.New64a()
	var b [8]byte
	for a := pmem.Addr(0); a < pmem.Addr(h.Size()); a += pmem.WordSize {
		if a >= ringLo && a < ringHi {
			continue
		}
		w := h.LoadPersistent64(a)
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		f.Write(b[:])
	}
	return f.Sum64()
}

// withGOMAXPROCS runs f with the flusher budget set to n.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestSerialFlushEquivalent: whatever the lists look like and however many
// flushers share them, a checkpoint leaves the persistent image SerialFlush
// leaves, byte for byte, and reports the same lines written — each live line
// exactly once. The flusher count follows the work: min(GOMAXPROCS, chunks),
// also when one list holds everything.
func TestSerialFlushEquivalent(t *testing.T) {
	for _, c := range flushCases {
		t.Run(c.name, func(t *testing.T) {
			rt, _ := populate(t, c, Config{SerialFlush: true})
			want := len(liveLines(rt))
			ref := mustCheckpointSolo(t, rt)
			refImage := imageHash(rt)
			if ref.LinesWrote != want {
				t.Fatalf("serial flush wrote %d lines, the lists hold %d live ones", ref.LinesWrote, want)
			}
			if n := len(rt.flush.flushers); n != 1 {
				t.Fatalf("SerialFlush ran %d flushers", n)
			}
			for _, procs := range []int{1, 2, 3, 8} {
				withGOMAXPROCS(procs, func() {
					rt, _ := populate(t, c, Config{})
					info := mustCheckpointSolo(t, rt)
					if info.LinesWrote != ref.LinesWrote || info.AddrsSeen != ref.AddrsSeen {
						t.Errorf("GOMAXPROCS %d: wrote %d lines of %d addresses, serial wrote %d of %d",
							procs, info.LinesWrote, info.AddrsSeen, ref.LinesWrote, ref.AddrsSeen)
					}
					if got := imageHash(rt); got != refImage {
						t.Errorf("GOMAXPROCS %d: persistent image %#x differs from the serial flush's %#x", procs, got, refImage)
					}
					wantFlushers := procs
					if c.addrs <= chunkAddrs {
						wantFlushers = 1 // one chunk: nothing to share
					}
					if n := len(rt.flush.flushers); n != wantFlushers {
						t.Errorf("GOMAXPROCS %d: %d flushers ran, want %d", procs, n, wantFlushers)
					}
				})
			}
		})
	}
}

// TestAsyncDrainWritesEachLineOnce races flush-on-collision workers against
// a drain of every case's lists, at every flusher count: each pending line
// must be written back by exactly one of them (the line counts and the
// flushers' own counters both say so), and the cut's values must be in NVMM
// when the drain commits.
func TestAsyncDrainWritesEachLineOnce(t *testing.T) {
	for _, c := range flushCases {
		for _, procs := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/procs=%d", c.name, procs), func(t *testing.T) {
				withGOMAXPROCS(procs, func() { asyncDrainOnce(t, c) })
			})
		}
	}
}

func asyncDrainOnce(t *testing.T, c flushCase) {
	rt, stored := populate(t, c, Config{AsyncFlush: true})
	h := rt.Heap()
	live := liveLines(rt)

	before := rt.Stats()
	entered, release := stallDrain(rt)
	mustCheckpointSolo(t, rt) // the cut; the drain stalls at its start
	<-entered

	// Every worker overwrites a word of each live line it draws, while the
	// drain runs: the guard in StoreTracked claims the line if the drain has
	// not, and flushes it first.
	close(release)
	var wg sync.WaitGroup
	for w := 0; w < c.lists; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.Thread(w)
			for i := w; i < len(stored); i += c.lists {
				th.StoreTracked(stored[i]+flushCutWord*pmem.WordSize, 1)
			}
		}()
	}
	wg.Wait()
	rt.WaitDrain()

	after := rt.Stats()
	drained := after.LinesWrote - before.LinesWrote
	collided := after.CollisionFlushes - before.CollisionFlushes
	if drained+collided != uint64(len(live)) {
		t.Errorf("drain wrote %d lines and collision flushes %d: %d write-backs for %d pending lines",
			drained, collided, drained+collided, len(live))
	}
	var byEngine, byWorkers uint64
	for _, f := range rt.flush.flushers {
		byEngine += f.Flushes()
	}
	for _, th := range rt.threads {
		if th.flusher != nil {
			byWorkers += th.flusher.Flushes()
		}
	}
	if byEngine != after.LinesWrote || byWorkers != collided {
		t.Errorf("flushers wrote back %d (engine) and %d (workers) lines, stats say %d and %d",
			byEngine, byWorkers, after.LinesWrote, collided)
	}
	for _, a := range stored {
		line := pmem.LineOf(a)
		// Whoever wrote the line back did so after the cut's stores to it.
		for w := 0; w < min(c.lists, flushCutWord); w++ {
			wa := a + pmem.Addr(w*pmem.WordSize)
			if got, want := h.LoadPersistent64(wa), h.Load64(wa); got != want {
				t.Fatalf("line %d word %d: NVMM holds %#x after the drain committed, the cut stored %#x", line, w, got, want)
			}
		}
	}
}
