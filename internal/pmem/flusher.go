package pmem

import "slices"

// Flusher is a per-goroutine handle for issuing asynchronous cache-line
// write-backs, mirroring the pwb/psync pair of the paper's system model
// (clwb/sfence on x86): CLWB initiates a write-back, SFence completes all
// write-backs this Flusher initiated.
//
// A Flusher must not be shared between goroutines.
type Flusher struct {
	h       *Heap
	pending []int // line indices queued by CLWB and not yet fenced
	sorted  bool  // pending is in ascending order (an empty queue is)
	flushes uint64
	fences  uint64
}

// NewFlusher returns a write-back handle for the calling goroutine.
func (h *Heap) NewFlusher() *Flusher {
	return &Flusher{h: h, pending: make([]int, 0, 64), sorted: true}
}

// CLWB queues a write-back of the cache line containing a. Like the hardware
// instruction it is asynchronous: the line is guaranteed to be in the
// persistent image only after the next SFence. The line may also reach the
// persistent image earlier (eviction can always happen first).
func (f *Flusher) CLWB(a Addr) {
	f.queue(int(a / LineSize))
}

// queue appends line to the pending set, noting whether the queue is still
// in ascending order: a checkpoint's flush engine emits lines sorted, and
// SFence then skips its own sort.
func (f *Flusher) queue(line int) {
	if n := len(f.pending); n > 0 && line < f.pending[n-1] {
		f.sorted = false
	}
	f.pending = append(f.pending, line)
	if o := f.h.obs.Load(); o != nil {
		o.emit(TraceEvent{Kind: EvQueue, Line: line})
	}
}

// SFence completes every write-back queued by this Flusher, charging the
// configured flush/fence latency. Duplicate lines in the queue are written
// back once (the hardware would coalesce them in the same way only within
// one fence window, which is exactly this window).
//
// The heap-wide flush counter and the latency model are charged once per
// fence, not once per line: FlushPenalty × lines written + FencePenalty spin
// iterations in one call. The simulated cost is the same; what goes is two
// writes to process-wide cache lines per flushed line, on which concurrent
// flushers serialised. Spinning after the copies instead of between them also
// lets the copies of scattered lines miss the cache in parallel (a 64 Ki-line
// checkpoint flush is ~10 % faster on one flusher); a run of adjacent lines,
// whose copies hit, loses the overlap of each spin with the next copy and is
// ~20 % slower.
func (f *Flusher) SFence() {
	h := f.h
	if !f.sorted {
		// Coalesce duplicates by sorting — far cheaper than a map for the
		// large batches a checkpoint drains.
		slices.Sort(f.pending)
	}
	wrote := 0
	prev := -1
	for _, line := range f.pending {
		if line == prev {
			continue
		}
		prev = line
		h.writeBackLine(line, CauseFlush)
		wrote++
	}
	f.pending = f.pending[:0]
	f.sorted = true
	f.flushes += uint64(wrote)
	f.fences++
	h.flushes.Add(uint64(wrote))
	h.fences.Add(1)
	if n := h.cfg.FlushPenalty*wrote + h.cfg.FencePenalty; n > 0 {
		spin(n)
	}
	if o := h.obs.Load(); o != nil {
		o.emit(TraceEvent{Kind: EvFence, Line: -1, Arg: uint64(wrote)})
	}
}

// Persist is the common clwb+sfence pair for a single address.
func (f *Flusher) Persist(a Addr) {
	f.CLWB(a)
	f.SFence()
}

// PersistRange queues write-backs for every line overlapping [a, a+n) and
// fences once.
func (f *Flusher) PersistRange(a Addr, n int) {
	if n <= 0 {
		f.SFence()
		return
	}
	first := int(a / LineSize)
	last := int((a + Addr(n) - 1) / LineSize)
	for line := first; line <= last; line++ {
		f.queue(line)
	}
	f.SFence()
}

// Pending returns the number of queued, un-fenced write-backs.
func (f *Flusher) Pending() int { return len(f.pending) }

// Flushes returns the number of line write-backs this Flusher completed.
func (f *Flusher) Flushes() uint64 { return f.flushes }

// Fences returns the number of SFence calls on this Flusher.
func (f *Flusher) Fences() uint64 { return f.fences }
