// Package psan is the runtime persistency sanitizer: a shadow heap that
// mirrors the durability state of every cache line and reports protocol
// violations at the instruction that commits them, not at the crash that
// would expose them.
//
// The static analyzers (internal/analysis, cmd/respctvet) prove ordering
// discipline where the flush and the publish are visible in one function or
// connected by flushfact summaries. The sanitizer covers the complement:
// properties that depend on runtime state — which lines the tracking layer
// actually registered this epoch, which dead ranges the checkpoint elided,
// whether a drain really flushed its claim — where a static proof would have
// to model the whole epoch machine.
//
// Each line advances through a tiny state machine driven by the heap's events
// (the Sanitizer is a pmem.Observer of EvStore, EvQueue, EvWriteBack and
// EvCrash): a store marks it dirty and stamps the current
// epoch plus the store's call stack; a flush-caused write-back (clwb made
// durable by sfence) returns it to clean. Evictions and the eADR battery
// flush deliberately do NOT clean the shadow state: a line that is durable
// only because the cache happened to evict it is durable by luck, and the
// sanitizer checks the protocol, not the luck. That choice also keeps
// detection deterministic under chaos-mode eviction schedules.
//
// Four rules:
//
//	R1 commit-unflushed: an epoch commit while a line tracked this epoch is
//	   still dirty from a store of that epoch (checked by CheckCommit, which
//	   the core runtime calls immediately before publishing the epoch word).
//	R2 untracked-flush: a line enters a flusher queue while dirty from a
//	   store the tracking layer never registered — a mutation the checkpoint
//	   protocol cannot see, being flushed by hand outside a declared
//	   manual-persistence region.
//	R3 publish-before-payload: a registered cursor word is stored while any
//	   line of its payload region is still dirty — the entry-then-cursor
//	   discipline inverted (covers both the missing flush and the
//	   clwb-without-fence variant, since only a fenced write-back cleans).
//	R4 store-outside-window: the tracking layer registers a store from a
//	   thread whose checkpoint-allow window is open (reported by the core
//	   runtime through ReportStoreOutsideWindow).
//
// All rules are Run-phase only; the runtime attaches the sanitizer after
// format or recovery and then switches the phase on, so construction-time
// stores never count. Every event is ignored once the heap has crashed:
// post-crash execution is confined to the discarded volatile image. At the
// crash event the sanitizer detaches itself, so the runtime recovered on that
// heap starts with only its own sanitizer, if any, observing.
package psan

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"github.com/respct/respct/internal/pmem"
)

// Mode selects what happens when a rule fires.
type Mode int

const (
	// ModeCollect records violations for later inspection via Violations.
	ModeCollect Mode = iota
	// ModePanic panics at the first violation, so the failing stack is the
	// violating instruction's stack. CI runs tests under this mode.
	ModePanic
)

// Phase gates the rules. Bookkeeping (dirty/tracked state) runs in every
// phase; rules fire only in PhaseRun.
type Phase int

const (
	PhaseInit     Phase = iota // construction: formatArena, ring formatting
	PhaseRecovery              // rollback and replay after a crash
	PhaseRun                   // steady state: all rules armed
)

// Rule identifies which invariant a violation broke.
type Rule int

const (
	RuleCommitUnflushed      Rule = iota + 1 // R1
	RuleUntrackedFlush                       // R2
	RulePublishBeforePayload                 // R3
	RuleStoreOutsideWindow                   // R4
)

// String renders the rule for reports.
func (r Rule) String() string {
	switch r {
	case RuleCommitUnflushed:
		return "commit-unflushed"
	case RuleUntrackedFlush:
		return "untracked-flush"
	case RulePublishBeforePayload:
		return "publish-before-payload"
	case RuleStoreOutsideWindow:
		return "store-outside-window"
	}
	return fmt.Sprintf("rule(%d)", int(r))
}

// Violation is one detected protocol break.
type Violation struct {
	Rule      Rule
	Line      int       // heap line the rule concerns
	Addr      pmem.Addr // address involved (store target or cursor word)
	Epoch     uint64    // epoch stamped on the offending store (R1/R2/R3)
	Site      string    // file:line where the violation was detected
	StoreSite string    // file:line of the offending store, when one exists
	Msg       string
}

// String renders the violation for reports and panics.
func (v Violation) String() string {
	s := fmt.Sprintf("psan: %s at %s: %s", v.Rule, v.Site, v.Msg)
	if v.StoreSite != "" {
		s += fmt.Sprintf(" (stored at %s)", v.StoreSite)
	}
	return s
}

// pcDepth bounds the raw call stack captured per store. Fixed-size so the
// capture allocates nothing.
const pcDepth = 8

// lineState is the shadow of one cache line.
type lineState struct {
	dirty        bool   // mutated since the last fenced write-back
	exempt       bool   // manual-persistence region: R1/R2 do not apply
	storeEpoch   uint64 // epoch of the store that made it dirty
	trackedEpoch uint64 // epoch of the last tracking registration
	npc          uint8
	pcs          [pcDepth]uintptr // stack of the store that made it dirty
}

// cursor is one registered publish word and the payload region it covers.
type cursor struct {
	word        pmem.Addr
	first, last int // payload line range, inclusive
}

// Sanitizer observes one heap's stores, queued lines and write-backs. One
// global mutex serialises every event: the sanitizer trades throughput for
// exactness, which is the right trade for a checker that is off in
// production runs.
type Sanitizer struct {
	h    *pmem.Heap
	mode Mode

	mu         sync.Mutex
	detach     func() // ends the observation; called at the heap's crash
	phase      Phase
	epoch      uint64
	lines      []lineState
	cursors    []cursor
	ndirty     int
	violations []Violation
}

// New builds a sanitizer for h and attaches it: from this call until h
// crashes it observes every store, queued line and write-back of h. Its rules
// stay disarmed until SetPhase(PhaseRun).
func New(h *pmem.Heap, mode Mode) *Sanitizer {
	s := &Sanitizer{h: h, mode: mode, lines: make([]lineState, h.Lines())}
	s.mu.Lock()
	s.detach = h.Observe(s, pmem.EvStore, pmem.EvQueue, pmem.EvWriteBack, pmem.EvCrash)
	s.mu.Unlock()
	return s
}

// SetPhase switches the rule gate. The runtime calls SetPhase(PhaseRun) once
// format or recovery is complete.
func (s *Sanitizer) SetPhase(p Phase) {
	s.mu.Lock()
	s.phase = p
	s.mu.Unlock()
}

// AdvanceEpoch tells the sanitizer which epoch subsequent stores belong to.
// The runtime calls it at format, after every synchronous commit, and at the
// async cut (under the parked world, before workers resume in the new
// epoch).
func (s *Sanitizer) AdvanceEpoch(e uint64) {
	s.mu.Lock()
	s.epoch = e
	s.mu.Unlock()
}

// ExemptRange declares [a, a+n) a manual-persistence region: its code path
// owns durability with explicit store→flush→fence ordering (flight ring,
// collision log, epoch word, format marker), so the tracking-discipline
// rules R1 and R2 do not apply there. The lines stay visible to the cursor
// rule R3 — exemption is not a blind spot for publish ordering.
func (s *Sanitizer) ExemptRange(a pmem.Addr, n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	for line := pmem.LineOf(a); line <= pmem.LineOf(a+pmem.Addr(n)-1); line++ {
		s.lines[line].exempt = true
	}
	s.mu.Unlock()
}

// RegisterCursor declares that the word at w publishes the payload region
// [payload, payload+n): rule R3 fires if w is stored while any payload line
// is dirty.
func (s *Sanitizer) RegisterCursor(w, payload pmem.Addr, n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.cursors = append(s.cursors, cursor{
		word:  w,
		first: pmem.LineOf(payload),
		last:  pmem.LineOf(payload + pmem.Addr(n) - 1),
	})
	s.mu.Unlock()
}

// NoteTracked records that the tracking layer registered address a for the
// current epoch's checkpoint. The core runtime calls it from AddModified;
// recovery calls it when replaying the persisted to-flush sets.
func (s *Sanitizer) NoteTracked(a pmem.Addr) {
	s.mu.Lock()
	s.lines[pmem.LineOf(a)].trackedEpoch = s.epoch
	s.mu.Unlock()
}

// ForgetRange drops the shadow dirty state of [a, a+n): the checkpoint
// proved the range dead (freed this epoch) and elided its flush, so its
// lines carry no durability obligation. Must be called before CheckCommit
// for the epoch that freed them.
func (s *Sanitizer) ForgetRange(a pmem.Addr, n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	for line := pmem.LineOf(a); line <= pmem.LineOf(a+pmem.Addr(n)-1); line++ {
		st := &s.lines[line]
		if st.dirty {
			st.dirty = false
			s.ndirty--
		}
		st.storeEpoch = 0
		st.trackedEpoch = 0
		st.npc = 0
	}
	s.mu.Unlock()
}

// CheckCommit runs rule R1: called immediately before the epoch word is
// published with the epoch being committed. Any line tracked for an epoch
// ≤ ending that is still dirty from a store of such an epoch is a store the
// commit is about to declare durable without having flushed. Stores already
// stamped with a later epoch (workers running ahead of an async drain) are
// not this commit's obligation and are skipped.
func (s *Sanitizer) CheckCommit(ending uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase != PhaseRun || s.ndirty == 0 || s.h.Crashed() {
		return
	}
	site := captureSite()
	for line := range s.lines {
		st := &s.lines[line]
		if !st.dirty || st.exempt || st.storeEpoch > ending || st.trackedEpoch < st.storeEpoch {
			continue
		}
		s.report(Violation{
			Rule:      RuleCommitUnflushed,
			Line:      line,
			Addr:      pmem.LineAddr(line),
			Epoch:     st.storeEpoch,
			Site:      site,
			StoreSite: resolveSite(st.pcs[:st.npc]),
			Msg: fmt.Sprintf("epoch %d commits while tracked line %d is dirty and unflushed",
				ending, line),
		})
	}
}

// ReportStoreOutsideWindow is rule R4's entry point: the core runtime calls
// it when the tracking layer registers a store from a thread whose
// checkpoint-allow window is open. Such a store races the checkpointer — the
// epoch it lands in is undefined.
func (s *Sanitizer) ReportStoreOutsideWindow(a pmem.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase != PhaseRun || s.h.Crashed() {
		return
	}
	s.report(Violation{
		Rule:  RuleStoreOutsideWindow,
		Line:  pmem.LineOf(a),
		Addr:  a,
		Epoch: s.epoch,
		Site:  captureSite(),
		Msg: fmt.Sprintf("tracked store to %#x while the thread's checkpoint-allow window is open",
			uint64(a)),
	})
}

// Event implements pmem.Observer: it advances the shadow state of the
// event's line and checks the rules the event can break.
func (s *Sanitizer) Event(e pmem.TraceEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Kind == pmem.EvCrash {
		s.detach()
		return
	}
	if s.h.Crashed() {
		return
	}
	switch e.Kind {
	case pmem.EvStore:
		s.store(e.Addr)
	case pmem.EvQueue:
		if s.phase == PhaseRun {
			s.queue(e.Line)
		}
	case pmem.EvWriteBack:
		// Only a flush-caused write-back (clwb completed by sfence) cleans
		// the shadow state; evictions and the eADR battery flush are
		// durability by accident, not by protocol.
		if st := &s.lines[e.Line]; e.Cause == pmem.CauseFlush && st.dirty {
			st.dirty = false
			s.ndirty--
			st.npc = 0
		}
	}
}

// store is a completed word store: bookkeeping plus rule R3. Caller holds
// s.mu.
func (s *Sanitizer) store(a pmem.Addr) {
	if s.phase == PhaseRun {
		for i := range s.cursors {
			c := &s.cursors[i]
			if c.word != a {
				continue
			}
			for line := c.first; line <= c.last; line++ {
				st := &s.lines[line]
				if !st.dirty {
					continue
				}
				s.report(Violation{
					Rule:      RulePublishBeforePayload,
					Line:      line,
					Addr:      a,
					Epoch:     st.storeEpoch,
					Site:      captureSite(),
					StoreSite: resolveSite(st.pcs[:st.npc]),
					Msg: fmt.Sprintf("cursor word %#x published while payload line %d is dirty (payload must be fenced first)",
						uint64(a), line),
				})
				break // one finding per publish is enough
			}
		}
	}
	st := &s.lines[pmem.LineOf(a)]
	if !st.dirty {
		st.dirty = true
		s.ndirty++
		st.storeEpoch = s.epoch
		// Skip Callers, store and Event: the stack starts in pmem, at the
		// dispatch of the store.
		st.npc = uint8(runtime.Callers(3, st.pcs[:]))
	}
}

// queue is a line entering a flusher queue: rule R2. Caller holds s.mu.
func (s *Sanitizer) queue(line int) {
	st := &s.lines[line]
	// Only lines the tracking layer has NEVER registered count: a line with
	// any tracking history may legitimately be dirty from a racing store of
	// the next epoch while a drain (or a recovery pass) flushes it, so the
	// rule keys on the one state that cannot race — tracking never saw the
	// line at all.
	if !st.dirty || st.exempt || st.trackedEpoch != 0 {
		return
	}
	s.report(Violation{
		Rule:      RuleUntrackedFlush,
		Line:      line,
		Addr:      pmem.LineAddr(line),
		Epoch:     st.storeEpoch,
		Site:      captureSite(),
		StoreSite: resolveSite(st.pcs[:st.npc]),
		Msg: fmt.Sprintf("line %d flushed while dirty from a store the tracking layer never registered",
			line),
	})
}

// report appends or panics per the mode. Caller holds s.mu.
func (s *Sanitizer) report(v Violation) {
	if s.mode == ModePanic {
		panic(v.String())
	}
	s.violations = append(s.violations, v)
}

// Violations returns a copy of the collected violations.
func (s *Sanitizer) Violations() []Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Violation, len(s.violations))
	copy(out, s.violations)
	return out
}

// Findings renders the collected violations one string each, the shape the
// crash explorer and the CLI report.
func (s *Sanitizer) Findings() []string {
	vs := s.Violations()
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// skipPrefixes are dropped when resolving a call stack to a site: the
// simulator plumbing and the sanitizer itself are never the interesting
// frame, and neither is the runtime's tracking layer — the caller who issued
// the store is. The trailing dot keeps package psan_test (and any other
// _test sibling) visible.
var skipPrefixes = []string{
	"/internal/pmem.",
	"/internal/psan.",
	"/internal/core.",
}

// captureSite resolves its caller's caller's call stack (outside
// psan/pmem/core) to file:line. Skipping the psan method that checks the rule
// keeps the fixed-depth capture for the frames that may name the site.
func captureSite() string {
	var pcs [pcDepth]uintptr
	n := runtime.Callers(3, pcs[:])
	return resolveSite(pcs[:n])
}

// resolveSite renders the first frame of pcs not owned by the simulator,
// the sanitizer or the core runtime.
func resolveSite(pcs []uintptr) string {
	if len(pcs) == 0 {
		return "unknown"
	}
	frames := runtime.CallersFrames(pcs)
	fallback := ""
	for {
		f, more := frames.Next()
		if f.File != "" && fallback == "" {
			fallback = fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
		}
		skip := false
		for _, p := range skipPrefixes {
			if strings.Contains(f.Function, p) {
				skip = true
				break
			}
		}
		if !skip && f.File != "" {
			return fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
		}
		if !more {
			break
		}
	}
	if fallback != "" {
		return fallback
	}
	return "unknown"
}
