package core

import (
	"github.com/respct/respct/internal/pmem"
)

// Tracking-layer hot path: registration of modified lines and the per-thread
// caches that keep a tracked store free of atomics and (in steady state) of
// allocation. See DESIGN.md "Hot-path cost model".
//
// Write combining. The paper's add_modified appends the modified address to a
// per-thread list; under a skewed workload the same hot lines are re-appended
// thousands of times per epoch and the checkpoint pays for every duplicate
// (list growth, sort, dead-range check). Each thread therefore keeps a small
// direct-mapped cache of recently registered lines, tagged with a per-thread
// generation. A registration whose line hits the cache at the current
// generation is a duplicate of an entry already in toFlush and is dropped.
// Resetting the cache is O(1): bump the generation and every slot goes stale.
// The generation bumps whenever the thread's toFlush list is cleared or
// stolen — sync flush, SkipFlush clear, async cut, recovery — which is
// exactly when a previously registered line stops being covered.
//
// Dropping a duplicate is safe because everything downstream is
// line-granular: the flusher coalesces addresses to lines anyway, dead-range
// elision operates on whole lines (block headers are a full line and class
// sizes are multiples of it), and the async dirty bit for the line was set by
// the first registration and is only cleared by a drain that cannot overlap
// the epoch (cuts bump the generation under the parked world). A false MISS
// (slot evicted by a colliding line) merely re-appends — the pre-existing
// duplicate-tolerant behaviour.
//
// Cached epoch state. update_InCLL reads the global epoch on every store and
// the async guard reads drainLive; both are atomics on shared lines. Neither
// value can change while a worker is running: the epoch advances and drains
// start only under the parked world, i.e. while every worker sits inside
// park/unpark or an allow window. Each thread therefore caches
// {epoch, durable epoch, drain-live} and refreshes the trio at the
// park/unpark boundaries it already crosses (RP, CheckpointPrevent) — the
// cached epoch is exact, and the cached drain flag is exact at the only
// transition that matters for safety (false→true happens strictly before the
// workers are released from the cut that starts the drain). The true→false
// transition at drain commit is observed lazily; a stale true only sends a
// store down the (atomic) pending-bit check, which then fails — conservative
// and cheap. The system thread never parks, so it keeps the atomic loads.

// lineCacheSlots sizes the direct-mapped write-combining cache: 512 slots of
// 16 bytes = 8 KiB per thread, indexed by line number. Power of two.
const lineCacheSlots = 512

type lineSlot struct {
	line uint64 // heap line index
	gen  uint64 // thread tracking generation that cached it
}

// newThread builds a worker (id >= 0) or system (id = -1) thread handle with
// its tracking caches initialised. The generation starts at 1 so the zeroed
// cache slots can never spuriously match line 0.
func newThread(rt *Runtime, id int) *Thread {
	return &Thread{
		rt:        rt,
		id:        id,
		trackGen:  1,
		lineCache: make([]lineSlot, lineCacheSlots),
	}
}

// seenLine records line in the write-combining cache, reporting whether it
// was already registered in toFlush during the current tracking generation.
func (t *Thread) seenLine(line uint64) bool {
	s := &t.lineCache[line&(lineCacheSlots-1)]
	if s.line == line && s.gen == t.trackGen {
		return true
	}
	s.line, s.gen = line, t.trackGen
	return false
}

// resetTracking clears the thread's to-be-flushed list and invalidates the
// write-combining cache in O(1) by bumping the generation. Every site that
// empties or steals toFlush must go through it: a stale cache entry would
// otherwise suppress the first registration of a line in the new epoch.
func (t *Thread) resetTracking() {
	t.toFlush = t.toFlush[:0]
	t.trackGen++
}

// AddModified registers a modified persistent address for flushing at the
// next checkpoint (paper add_modified, Fig. 4 lines 12-13). InCLL updates
// call it automatically on the first update per epoch; plain (RAW-only)
// persistent stores must call it explicitly right after the write, under the
// same exclusion that protected the write. Re-registrations of a recently
// tracked line are write-combined away (see the file comment).
func (t *Thread) AddModified(a pmem.Addr) {
	if s := t.rt.san; s != nil {
		// Before the write-combining check: the window rule must see every
		// registration, combined away or not.
		t.sanTrack(s, a)
	}
	if t.seenLine(uint64(a) / pmem.LineSize) {
		return
	}
	t.toFlush = append(t.toFlush, a)
	if t.rt.asyncOn {
		// Marking the line dirty here, at tracking time, is what keeps the
		// async cut O(threads): the checkpoint swaps bitmaps instead of
		// walking every tracked address under the parked world.
		t.rt.markDirty(a)
	}
}

// AddModifiedRange registers every cache line overlapping [a, a+n). Under
// AsyncFlush it is only a correct idiom for freshly allocated or append-only
// data: the collision guard flushes a still-pending line *after* the caller's
// writes, which preserves the previous cut's words only if they were not
// overwritten. Plain overwrites of pre-existing words must go through
// StoreTracked, which guards before the store.
func (t *Thread) AddModifiedRange(a pmem.Addr, n int) {
	if n <= 0 {
		return
	}
	first := pmem.LineOf(a)
	last := pmem.LineOf(a + pmem.Addr(n) - 1)
	if s := t.rt.san; s != nil {
		for line := first; line <= last; line++ {
			t.sanTrack(s, pmem.LineAddr(line))
		}
	}
	async := t.rt.asyncOn
	for line := first; line <= last; line++ {
		la := pmem.LineAddr(line)
		// The guard runs per line even when the registration is combined
		// away: the line may have entered toFlush through a path that does
		// not guard (Init of a recycled block), and a redundant guard on an
		// already-flushed line is a no-op.
		if async {
			t.guardLine(la)
		}
		if t.seenLine(uint64(line)) {
			continue
		}
		if async {
			t.rt.markDirty(la)
		}
		t.toFlush = append(t.toFlush, la)
	}
}

// StoreTracked writes a plain persistent word and registers it for flushing.
// It is the idiom for RAW-only persistent data (no WAR dependency, so no
// undo log needed — paper §3.3.2 and Fig. 6b line 6). Under AsyncFlush the
// store first flushes the word's line if an in-flight drain still owes it to
// NVMM (flush-on-collision), so the previous cut can never lose the line's
// pre-overwrite image.
func (t *Thread) StoreTracked(a pmem.Addr, v uint64) {
	if t.rt.asyncOn {
		t.guardLine(a)
	}
	t.rt.heap.Store64(a, v)
	t.AddModified(a)
}

// epoch returns the current epoch as seen by this thread. Workers read their
// cached copy — the epoch only advances under the parked world, and the cache
// is refreshed at every park/unpark boundary — while the system thread, which
// never parks, reads the shared atomic.
func (t *Thread) epoch() uint64 {
	if t.id < 0 {
		return t.rt.epochCache.Load()
	}
	return t.epochCached
}

// durable returns a lower bound on the durable epoch: the cached copy for
// workers, the live atomic for sys. Arena.Alloc uses it to skip the atomic
// load on the magazine fast path; callers needing the exact value fall back
// to rt.durableEpoch.
func (t *Thread) durable() uint64 {
	if t.id < 0 {
		return t.rt.durableEpoch.Load()
	}
	return t.durableCached
}

// drainPossible reports whether a drain may be in flight. Exact for sys;
// for workers it is the cached flag, which can only err towards true (the
// false→true edge is published before the workers leave the cut's gate).
func (t *Thread) drainPossible() bool {
	if t.id < 0 {
		return t.rt.drainLive.Load()
	}
	return t.drainCached
}

// refreshEpochState re-reads the shared epoch state into the thread's cache.
// Called at the park/unpark boundaries (RP, CheckpointPrevent) and once at
// construction time by NewRuntime/Recover before the handles are handed out.
func (t *Thread) refreshEpochState() {
	rt := t.rt
	t.epochCached = rt.epochCache.Load()
	t.durableCached = rt.durableEpoch.Load()
	if rt.asyncOn {
		t.drainCached = rt.drainLive.Load()
	}
}

// refreshThreadCaches refreshes every worker's cached epoch state. Runtime
// construction calls it after the last epoch change; thereafter the threads
// maintain their own caches.
func (rt *Runtime) refreshThreadCaches() {
	for _, t := range rt.threads {
		t.refreshEpochState()
	}
}
