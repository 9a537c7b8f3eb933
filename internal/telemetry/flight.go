package telemetry

import (
	"fmt"
	"sync"
	"time"

	"github.com/respct/respct/internal/pmem"
)

// The flight recorder is a persistent ring of runtime events — checkpoints,
// async cuts, drain commits, recoveries — carved out of the pmem heap by the
// owning runtime. Its purpose is post-mortem: after a crash, recovery reads
// the ring from the persistent image and the report shows the runtime's
// final moments.
//
// Crash consistency follows the collision log's entry-then-cursor
// discipline. Each entry occupies one cache line and is written (sequence
// word first), persisted with its own fence, and only then is the header
// cursor advanced and persisted. The volatile cursor therefore never exceeds
// the durable entry count, even under chaos-mode eviction (an early
// write-back of the header line can only publish a cursor whose entries are
// already durable). A crash can lose at most the one in-flight entry: its
// slot may hold a torn entry, but the sequence word — written first —
// already differs from the expected value, so the reader rejects the slot;
// mid-wraparound, that in-flight entry may have clobbered the oldest slot of
// the window. Every event the reader does return was genuinely appended, in
// order.

// FlightEntryBytes is the persistent footprint of one event: a full cache
// line, so entries never straddle and a single Persist covers one append.
const FlightEntryBytes = pmem.LineSize

// FlightLines returns the number of heap lines a recorder with n entries
// reserves (one header line plus one line per entry).
func FlightLines(n int) int { return 1 + n }

// FlightKind classifies an event.
type FlightKind uint8

const (
	FlightFormat      FlightKind = iota + 1 // heap formatted (epoch = first real epoch)
	FlightCheckpoint                        // synchronous checkpoint completed (aux = pause ns, aux2 = lines)
	FlightCut                               // async cut released the workers (aux = pause ns, aux2 = addrs stolen)
	FlightDrainCommit                       // async drain made its epoch durable (aux = lag ns, aux2 = lines)
	FlightRecovery                          // recovery pass completed (aux = cells rolled back, aux2 = drain interrupted)
	FlightSnapshot                          // whole-image snapshot written: no writer remains, the value stays so persisted rings keep their numbering
	FlightFrameSnap                         // frame set written (aux = lines, aux2 = bytes)
)

// String renders the kind for reports.
func (k FlightKind) String() string {
	switch k {
	case FlightFormat:
		return "format"
	case FlightCheckpoint:
		return "checkpoint"
	case FlightCut:
		return "cut"
	case FlightDrainCommit:
		return "drain-commit"
	case FlightRecovery:
		return "recovery"
	case FlightSnapshot:
		return "snapshot"
	case FlightFrameSnap:
		return "frame-snapshot"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func (k FlightKind) valid() bool { return k >= FlightFormat && k <= FlightFrameSnap }

// FlightEvent is one recovered or live event.
type FlightEvent struct {
	Seq   uint64     // 1-based append index, monotonic across the run
	Kind  FlightKind //
	Epoch uint64     // the epoch the event concerns
	Aux   uint64     // kind-specific (durations in ns, counts)
	Aux2  uint64     // kind-specific secondary payload
	Unix  int64      // wall-clock nanoseconds at append time
}

// String renders one event for reports.
func (e FlightEvent) String() string {
	t := time.Unix(0, e.Unix).UTC().Format("15:04:05.000")
	switch e.Kind {
	case FlightCheckpoint:
		return fmt.Sprintf("#%d %s %s epoch=%d pause=%v lines=%d", e.Seq, t, e.Kind, e.Epoch, time.Duration(e.Aux), e.Aux2)
	case FlightCut:
		return fmt.Sprintf("#%d %s %s epoch=%d pause=%v addrs=%d", e.Seq, t, e.Kind, e.Epoch, time.Duration(e.Aux), e.Aux2)
	case FlightDrainCommit:
		return fmt.Sprintf("#%d %s %s epoch=%d lag=%v lines=%d", e.Seq, t, e.Kind, e.Epoch, time.Duration(e.Aux), e.Aux2)
	case FlightRecovery:
		return fmt.Sprintf("#%d %s %s failed-epoch=%d rolled-back=%d drain-interrupted=%v", e.Seq, t, e.Kind, e.Epoch, e.Aux, e.Aux2 != 0)
	case FlightFrameSnap:
		return fmt.Sprintf("#%d %s %s epoch=%d lines=%d bytes=%d", e.Seq, t, e.Kind, e.Epoch, e.Aux, e.Aux2)
	}
	return fmt.Sprintf("#%d %s %s epoch=%d aux=%d", e.Seq, t, e.Kind, e.Epoch, e.Aux)
}

// entry word offsets (within the entry's line)
const (
	entSeqOff  = 0
	entKindOff = 8 // kind<<56 | epoch (epochs stay far below 2^56)
	entAuxOff  = 16
	entAux2Off = 24
	entUnixOff = 32
)

// FlightRecorder appends events to a reserved region of a persistent heap.
// Appends are serialized internally; they happen at checkpoint cadence, not
// on operation hot paths.
type FlightRecorder struct {
	h       *pmem.Heap
	hdr     pmem.Addr // header line: word 0 = cursor (total events appended)
	base    pmem.Addr // first entry slot, the line after hdr
	entries int

	mu  sync.Mutex
	f   *pmem.Flusher
	seq uint64 // last appended sequence number
}

// NewFlightRecorder formats a recorder over the FlightLines(entries) lines
// starting at hdr: the cursor is zeroed and persisted.
func NewFlightRecorder(h *pmem.Heap, hdr pmem.Addr, entries int) *FlightRecorder {
	r := &FlightRecorder{
		h: h, hdr: hdr, base: hdr + pmem.LineSize,
		entries: entries, f: h.NewFlusher(),
	}
	h.Store64(hdr, 0)
	r.f.Persist(hdr)
	return r
}

// OpenFlightRecorder attaches to a previously formatted recorder and returns
// the recovered window of events, oldest first. Call after the heap has been
// reopened (volatile image == persistent image). The recovered window is
// consistent: sequences strictly increase and end at the durable cursor;
// slots torn or clobbered by the crash's in-flight append are dropped.
func OpenFlightRecorder(h *pmem.Heap, hdr pmem.Addr, entries int) (*FlightRecorder, []FlightEvent) {
	r := &FlightRecorder{
		h: h, hdr: hdr, base: hdr + pmem.LineSize,
		entries: entries, f: h.NewFlusher(),
	}
	r.seq = h.Load64(hdr)
	return r, r.Events()
}

// Record appends one event and makes it durable (entry fenced before
// cursor). Safe for concurrent use.
func (r *FlightRecorder) Record(kind FlightKind, epoch, aux, aux2 uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.seq + 1
	slot := (seq - 1) % uint64(r.entries)
	ent := r.base + pmem.Addr(slot)*FlightEntryBytes
	h := r.h
	// Sequence word first: any write-back of a partially written slot
	// carries the new sequence, which the reader rejects until the cursor
	// covers it — a torn entry can never be mistaken for the old one.
	h.Store64(ent+entSeqOff, seq)
	h.Store64(ent+entKindOff, uint64(kind)<<56|epoch&(1<<56-1))
	h.Store64(ent+entAuxOff, aux)
	h.Store64(ent+entAux2Off, aux2)
	h.Store64(ent+entUnixOff, uint64(time.Now().UnixNano()))
	r.f.Persist(ent)
	h.Store64(r.hdr, seq)
	r.f.Persist(r.hdr)
	r.seq = seq
}

// Events returns the currently recorded window, oldest first, read from the
// volatile image. Concurrent Record calls may add events while reading; the
// returned slice is still a consistent ascending run.
func (r *FlightRecorder) Events() []FlightEvent {
	h := r.h
	cursor := h.Load64(r.hdr)
	if cursor == 0 {
		return nil
	}
	lo := uint64(1)
	if cursor > uint64(r.entries) {
		lo = cursor - uint64(r.entries) + 1
	}
	out := make([]FlightEvent, 0, cursor-lo+1)
	for k := lo; k <= cursor; k++ {
		slot := (k - 1) % uint64(r.entries)
		ent := r.base + pmem.Addr(slot)*FlightEntryBytes
		if h.Load64(ent+entSeqOff) != k {
			// Clobbered by the crash's in-flight append (mid-wraparound) or
			// torn: drop it. Only the oldest slot of the window can be hit,
			// so the remaining run stays contiguous.
			continue
		}
		kw := h.Load64(ent + entKindOff)
		kind := FlightKind(kw >> 56)
		if !kind.valid() {
			continue
		}
		out = append(out, FlightEvent{
			Seq:   k,
			Kind:  kind,
			Epoch: kw & (1<<56 - 1),
			Aux:   h.Load64(ent + entAuxOff),
			Aux2:  h.Load64(ent + entAux2Off),
			Unix:  int64(h.Load64(ent + entUnixOff)),
		})
	}
	return out
}

// Seq returns the last appended sequence number.
func (r *FlightRecorder) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
