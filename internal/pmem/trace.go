package pmem

import (
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the observation side of the simulated persistency model. The
// paper's system model (§2.1) has three persistence events — a store reaches
// the cache, a line is written back, a fence completes — and the heap reports
// each of them, together with a Flusher queueing a line, higher-layer
// annotations and the crash itself, as a TraceEvent to the Observers attached
// through Heap.Observe. Every consumer is such an observer: the Recorder,
// which turns a run's persistence schedule into a replayable trace with
// stable event IDs (internal/crashexplore enumerates crash points on it), and
// the persistency sanitizer (internal/psan). The file also holds the
// pluggable write-back Schedule: when dirty lines spontaneously reach the
// media.

// EventKind classifies a persistence event.
type EventKind uint8

// The event kinds. Only EvWriteBack mutates the persistent image; EvFence
// orders prior write-backs and EvAnnotation is a semantic marker emitted by
// higher layers (core) at protocol points. These three are the
// ordering-relevant events a Recorder traces; the kinds after them serve
// observers that shadow the volatile image or the machine's lifetime.
const (
	// EvWriteBack is one cache line reaching the persistent image, by
	// flush, eviction or the eADR battery.
	EvWriteBack EventKind = iota + 1
	// EvFence is a completed SFence: every write-back the issuing Flusher
	// had queued is in the persistent image when this event is emitted.
	EvFence
	// EvAnnotation is a semantic marker from a higher layer (see
	// Heap.Annotate): epoch commits, collision-log appends, and the like.
	// Annotations never change the persistent image.
	EvAnnotation
	// EvStore is a completed word store to the volatile image (Store64, a
	// successful CAS64, Add64, and every word of StoreBytes/StoreString).
	EvStore
	// EvQueue is a line entering a Flusher's pending set (CLWB or
	// PersistRange): its write-back is initiated, not yet durable.
	EvQueue
	// EvCrash is Crash: the machine is down. An eADR heap's battery flush
	// precedes it as write-backs. Observers stay attached across Crash and
	// Reopen; one whose state dies with the machine detaches itself here.
	EvCrash

	numKinds
)

// String returns the kind's short name.
func (k EventKind) String() string {
	switch k {
	case EvWriteBack:
		return "writeback"
	case EvFence:
		return "fence"
	case EvAnnotation:
		return "annotation"
	case EvStore:
		return "store"
	case EvQueue:
		return "queue"
	case EvCrash:
		return "crash"
	}
	return "unknown"
}

// WBCause says which mechanism moved a line into the persistent image.
type WBCause uint8

// Write-back causes. The distinction matters to the failure model: CLWB
// write-backs happen at points the program chose (and fenced), evictions at
// points the Schedule chose, and eADR write-backs only at the crash itself.
const (
	// CauseFlush is an explicit CLWB completed by an SFence.
	CauseFlush WBCause = iota + 1
	// CauseEvict is a spontaneous eviction issued by a Schedule (or a test
	// helper such as EvictAll/EvictDirtyFraction/PersistAll).
	CauseEvict
	// CauseEADR is the battery-backed flush of the whole cache hierarchy
	// that an EADR-mode heap performs at Crash.
	CauseEADR
)

// String returns the cause's short name.
func (c WBCause) String() string {
	switch c {
	case CauseFlush:
		return "flush"
	case CauseEvict:
		return "evict"
	case CauseEADR:
		return "eadr"
	}
	return "unknown"
}

// TraceEvent is one persistence event. In a Recorder's trace, Seq is the
// event's stable ID: a deterministic workload replayed under the same
// schedule produces the same event at the same Seq, which is what makes
// "crash after event k" a well-defined, replayable crash point.
type TraceEvent struct {
	Seq  uint64    // stable position in a Recorder's trace
	Kind EventKind // which event this is
	Heap int       // recorder-assigned heap ID (multi-heap workloads)

	// Line is the cache line written back, queued or stored to (-1 for a
	// fence); Cause and Changed describe a write-back.
	Line  int
	Cause WBCause // flush, evict or eadr
	// Changed reports that the write-back altered at least one persistent
	// word. It is computed only while a ChangeObserver observes
	// write-backs, and false otherwise.
	Changed bool

	// Annotation fields (EvAnnotation; a fence carries its line count in
	// Arg).
	Tag string // semantic marker, e.g. "epoch-commit"
	Arg uint64 // marker argument, e.g. the epoch number

	Addr Addr // the word stored (EvStore only)
}

// Observer receives a heap's persistence events. The heap invokes it
// synchronously, on the goroutine that caused the event, after the event has
// taken effect (a store is visible, a write-back's line is in the persistent
// image) and outside the chaos-mode line locks. An Observer attached to a
// heap used by concurrent goroutines must be safe for concurrent use; event
// order is only byte-for-byte reproducible when all persistence activity is
// serial (one goroutine at a time), which is the regime internal/crashexplore
// runs in. An Observer may attach and detach observers, including itself,
// from inside Event.
type Observer interface {
	// Event delivers one event. Seq is zero and Heap is zero: the heap
	// knows neither; a Recorder stamps both.
	Event(e TraceEvent)
}

// ChangeObserver is an Observer whose write-back events must carry Changed.
// Computing it compares every word of the line with the persistent image
// before the copy, so the heap does it only while a ChangeObserver observes
// write-backs.
type ChangeObserver interface {
	Observer
	// ObservesChanges marks the observer; it is never called.
	ObservesChanges()
}

// subscription is one Observe call: the observer and the kinds it asked for.
// Detaching removes exactly this subscription, even when the same observer
// is attached twice.
type subscription struct {
	o     Observer
	kinds []EventKind
}

// fanout is an immutable snapshot of a heap's subscriptions, indexed by
// kind. Observe and detach replace it whole, so emitting an event is one
// atomic pointer load — and nothing else when no observer is attached (the
// heap's pointer is nil) — and delivering it allocates nothing.
type fanout struct {
	subs    []*subscription
	byKind  [numKinds][]Observer
	changed bool // a ChangeObserver observes EvWriteBack
}

func newFanout(subs []*subscription) *fanout {
	if len(subs) == 0 {
		return nil
	}
	f := &fanout{subs: subs}
	for _, s := range subs {
		for _, k := range s.kinds {
			f.byKind[k] = append(f.byKind[k], s.o)
			if _, ok := s.o.(ChangeObserver); ok && k == EvWriteBack {
				f.changed = true
			}
		}
	}
	return f
}

// emit delivers e to the observers of its kind, in attach order. It is the
// one place every event is dispatched from; callers load the heap's fan-out
// once and build e only when it is non-nil.
func (f *fanout) emit(e TraceEvent) {
	for _, o := range f.byKind[e.Kind] {
		o.Event(e)
	}
}

// Observe attaches o to the heap for the given event kinds and returns the
// function that detaches it again (idempotent). Attach observers before the
// observed activity starts: the swap is atomic, but events already in flight
// on other goroutines may be missed, and may still arrive shortly after
// detach returns.
func (h *Heap) Observe(o Observer, kinds ...EventKind) (detach func()) {
	sub := &subscription{o: o, kinds: slices.Clone(kinds)}
	h.resubscribe(func(subs []*subscription) []*subscription { return append(subs, sub) })
	var once sync.Once
	return func() {
		once.Do(func() {
			h.resubscribe(func(subs []*subscription) []*subscription {
				return slices.DeleteFunc(subs, func(s *subscription) bool { return s == sub })
			})
		})
	}
}

// resubscribe publishes a fan-out built from edit applied to a copy of the
// current subscriptions.
func (h *Heap) resubscribe(edit func([]*subscription) []*subscription) {
	h.obsMu.Lock()
	defer h.obsMu.Unlock()
	var subs []*subscription
	if f := h.obs.Load(); f != nil {
		subs = slices.Clone(f.subs)
	}
	h.obs.Store(newFanout(edit(subs)))
}

// Annotate emits an EvAnnotation event carrying a semantic marker from a
// higher layer — "epoch-commit", "collision-append" and the like — so a
// trace can be read (and crash points prioritised) in protocol terms, not
// just line numbers. It never changes the persistent image and costs one
// atomic load when nothing observes the heap.
func (h *Heap) Annotate(tag string, arg uint64) {
	if f := h.obs.Load(); f != nil {
		f.emit(TraceEvent{Kind: EvAnnotation, Tag: tag, Arg: arg})
	}
}

// HashPersistent returns an FNV-1a hash of the entire persistent image.
// Two heaps with equal hashes recover identically (recovery is a
// deterministic function of the persistent image), which is what lets the
// crash-point explorer deduplicate crash points that produced the same
// partially-written-back state.
func (h *Heap) HashPersistent() uint64 {
	f := fnv.New64a()
	var b [8]byte
	for i := range h.persist {
		w := atomic.LoadUint64(&h.persist[i])
		b[0] = byte(w)
		b[1] = byte(w >> 8)
		b[2] = byte(w >> 16)
		b[3] = byte(w >> 24)
		b[4] = byte(w >> 32)
		b[5] = byte(w >> 40)
		b[6] = byte(w >> 48)
		b[7] = byte(w >> 56)
		f.Write(b[:])
	}
	return f.Sum64()
}

// Schedule is a pluggable source of spontaneous line write-backs — the
// simulated cache replacement policy. A Schedule decides *when* dirty lines
// reach the persistent image outside the program's explicit CLWB/SFence
// discipline; it is exactly the adversary checkpointing must tolerate. The
// seeded chaos Evictor is the randomized implementation used by the soaks;
// deterministic exploration uses no schedule (CLWB-only) or a scripted one
// (see Script) replayed at exact trace positions.
type Schedule interface {
	// Start begins issuing write-backs; it must be safe to call once.
	Start()
	// Stop halts the schedule and waits for any in-flight write-back.
	Stop()
}

// Evictor is the randomized Schedule implementation.
var _ Schedule = (*Evictor)(nil)

// Action is one scripted spontaneous write-back: after the trace event with
// sequence ID AfterSeq completes, evict Line of heap Heap (by recorder ID).
// Line -1 means "every dirty line" — the worst-case everything-evicted
// schedule at that point. Actions are the serialisable half of a replayable
// schedule: a repro file carries them next to the crash-point ID.
type Action struct {
	AfterSeq uint64 `json:"after_seq"` // trace event the eviction fires right after
	Heap     int    `json:"heap"`      // recorder ID of the target heap (attachment order)
	Line     int    `json:"line"`      // line index to evict; -1 evicts every dirty line
}

// Recorder observes the ordering-relevant events (write-backs, fences,
// annotations) of the heaps attached to it, appends each with a stable,
// strictly increasing sequence ID, and runs registered callbacks at exact
// sequence positions (crash triggers, scripted evictions). It is safe for
// concurrent use; sequence assignment is serialised, so in a serial workload
// the IDs are reproducible run-to-run.
type Recorder struct {
	mu     sync.Mutex
	events []TraceEvent
	after  map[uint64][]func()
	heaps  []*Heap
	detach []func()
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{after: map[uint64][]func(){}}
}

// heapTap is a Recorder's observer on one heap: it stamps the heap's events
// with the ID the recorder knows it by.
type heapTap struct {
	r  *Recorder
	id int
}

func (t heapTap) Event(e TraceEvent) {
	e.Heap = t.id
	t.r.record(e)
}

func (heapTap) ObservesChanges() {}

// Attach registers h with the recorder under the next heap ID and starts
// recording its write-backs, fences and annotations. Returns the assigned
// heap ID.
func (r *Recorder) Attach(h *Heap) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.heaps)
	r.heaps = append(r.heaps, h)
	r.detach = append(r.detach, h.Observe(heapTap{r: r, id: id}, EvWriteBack, EvFence, EvAnnotation))
	return id
}

// Detach stops recording every attached heap; the heaps stay registered.
func (r *Recorder) Detach() {
	r.mu.Lock()
	ds := r.detach
	r.detach = nil
	r.mu.Unlock()
	for _, d := range ds {
		d()
	}
}

// Heaps returns the heaps attached so far, in attachment (ID) order.
func (r *Recorder) Heaps() []*Heap {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Heap(nil), r.heaps...)
}

// record assigns the next sequence ID, appends, then runs any callbacks
// registered for that ID. Callbacks run outside the lock so they may
// re-enter the recorder (a scripted eviction's write-back emits its own
// event).
func (r *Recorder) record(e TraceEvent) {
	r.mu.Lock()
	e.Seq = uint64(len(r.events))
	r.events = append(r.events, e)
	cbs := r.after[e.Seq]
	delete(r.after, e.Seq)
	r.mu.Unlock()
	for _, f := range cbs {
		f()
	}
}

// Len returns the number of events recorded so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of the recorded trace.
func (r *Recorder) Events() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]TraceEvent(nil), r.events...)
}

// AfterSeq registers f to run immediately after the event with sequence ID
// seq is recorded. Registration must happen before the sequence position is
// reached; a registration for an already-recorded seq never fires.
func (r *Recorder) AfterSeq(seq uint64, f func()) {
	r.mu.Lock()
	r.after[seq] = append(r.after[seq], f)
	r.mu.Unlock()
}

// CrashAllAt arranges for every attached heap to crash immediately after
// the event with sequence ID seq completes: events 0..seq are in the
// persistent image, nothing later is. This is the crash-point injection
// primitive of the deterministic explorer.
func (r *Recorder) CrashAllAt(seq uint64) {
	r.AfterSeq(seq, r.CrashAll)
}

// CrashAll crashes every heap attached to the recorder, in attachment
// order.
func (r *Recorder) CrashAll() {
	for _, h := range r.Heaps() {
		if !h.Crashed() {
			h.Crash()
		}
	}
}

// Script installs actions on the recorder: each Action evicts its line
// (every dirty line when Line is -1) right after the event with its
// sequence ID, on the heap with its recorder ID. Scripted evictions emit
// their own write-back events, so they shift later sequence IDs exactly the
// same way on every replay — the schedule stays byte-for-byte reproducible.
// Actions naming a heap that is never attached are ignored.
func (r *Recorder) Script(actions []Action) {
	for _, a := range actions {
		act := a
		r.AfterSeq(act.AfterSeq, func() {
			hs := r.Heaps()
			if act.Heap < 0 || act.Heap >= len(hs) {
				return
			}
			h := hs[act.Heap]
			if act.Line < 0 {
				h.EvictAll()
				return
			}
			if act.Line < h.Lines() {
				h.EvictLine(act.Line)
			}
		})
	}
}

// TraceHash returns an FNV-1a hash over the (Kind, Heap, Line, Cause,
// Changed, Tag, Arg) fields of events, position-sensitively; Seq and Addr do
// not take part. Replays use it to assert that a re-execution followed the
// reference schedule byte-for-byte up to the crash point.
func TraceHash(events []TraceEvent) uint64 {
	f := fnv.New64a()
	var b [8]byte
	put := func(w uint64) {
		b[0] = byte(w)
		b[1] = byte(w >> 8)
		b[2] = byte(w >> 16)
		b[3] = byte(w >> 24)
		b[4] = byte(w >> 32)
		b[5] = byte(w >> 40)
		b[6] = byte(w >> 48)
		b[7] = byte(w >> 56)
		f.Write(b[:])
	}
	for _, e := range events {
		put(uint64(e.Kind))
		put(uint64(e.Heap))
		put(uint64(int64(e.Line)))
		put(uint64(e.Cause))
		if e.Changed {
			put(1)
		} else {
			put(0)
		}
		f.Write([]byte(e.Tag))
		put(e.Arg)
	}
	return f.Sum64()
}
