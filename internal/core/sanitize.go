package core

import (
	"os"

	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/psan"
)

// Sanitizer integration. The runtime owns the sanitizer's lifecycle: it is
// built and attached after format or recovery (so construction-time stores
// never count), told about every epoch boundary, exempt region and publish
// cursor, and consulted at both commit paths. The sanitizer observes the
// heap's events itself (pmem.Heap.Observe) until the heap crashes; the rules
// live in internal/psan.

// Test-only fault injection for the recovery regression fixtures. Both
// re-seed bugs this codebase actually shipped and fixed; the fixtures keep
// them detectable.
var (
	// faultSkipReplayMarks skips finishInit's marking of recovery-replayed
	// addresses in the async pending bitmaps: the first drain's
	// test-and-clear then skips their lines and commits an epoch that never
	// flushed them — the rule-R1 scenario the sanitizer exists to catch.
	faultSkipReplayMarks bool
	// faultWalkBeforeReplay makes Recover walk the carved region before
	// replaying the collision log. When the bump cursor itself was
	// collision-logged, the not-yet-durable bump extends the walk into
	// blocks whose headers never reached NVMM.
	faultWalkBeforeReplay bool
)

// sanitizeWanted resolves Config.Sanitize against the RESPCT_SANITIZE
// environment variable. An explicit Config.Sanitize always collects (tests
// that opt in want to inspect findings); the environment variable arms
// runtimes that did not opt in — CI sets RESPCT_SANITIZE=panic to fail any
// test suite at its first violation. SkipFlush disables sanitizing outright:
// that configuration elides the flush by design, so every commit would be a
// rule-R1 finding.
func (rt *Runtime) sanitizeWanted() (on bool, mode psan.Mode) {
	if rt.cfg.SkipFlush {
		return false, psan.ModeCollect
	}
	if rt.cfg.Sanitize {
		return true, psan.ModeCollect
	}
	switch os.Getenv("RESPCT_SANITIZE") {
	case "":
		return false, psan.ModeCollect
	case "panic":
		return true, psan.ModePanic
	default:
		return true, psan.ModeCollect
	}
}

// attachSanitizer builds, configures and attaches the shadow heap when the
// runtime is sanitized. A crashed runtime's sanitizer detached itself at the
// crash, so a recovered heap carries only this one. epoch is the epoch
// execution starts in; replay re-arms the tracked state of addresses
// recovery registered for flushing, so a resumed epoch that fails to flush
// them still trips rule R1.
func (rt *Runtime) attachSanitizer(epoch uint64, replay bool) {
	on, mode := rt.sanitizeWanted()
	if !on {
		return
	}
	s := psan.New(rt.heap, mode)
	a := rt.arena
	// Manual-persistence regions: each of these owns its durability with
	// explicit store→flush→fence ordering, outside the tracking layer.
	s.ExemptRange(rt.heap.EpochAddr(), pmem.LineSize)
	s.ExemptRange(a.markerAddr(), pmem.LineSize)
	s.ExemptRange(a.collHdrAddr(), pmem.LineSize)
	s.ExemptRange(a.collEntryAddr(0), collLogEntries*16)
	s.ExemptRange(a.flightHdrAddr(), flightRingLines*pmem.LineSize)
	// Publish cursors: entry-then-cursor rings whose inversion rule R3
	// catches. The collision log's guard word (offset 0) is armed before a
	// drain window opens and is not a cursor; its count word is.
	s.RegisterCursor(a.flightHdrAddr(), a.flightHdrAddr()+pmem.LineSize, flightEntries*pmem.LineSize)
	s.RegisterCursor(a.collHdrAddr()+8, a.collEntryAddr(0), collLogEntries*16)
	s.AdvanceEpoch(epoch)
	if replay {
		for _, t := range rt.all {
			for _, addr := range t.toFlush {
				s.NoteTracked(addr)
			}
		}
	}
	rt.san = s
	s.SetPhase(psan.PhaseRun)
}

// sanBeforeCommit runs the rule-R1 gate for an epoch about to publish its
// commit: the dead spans the flush elided carry no durability obligation and
// are dropped first, then every line still owed to the ending epoch is
// checked. Both commit paths — the synchronous checkpoint and the async
// drain — call it immediately before the epoch word is stored.
func (rt *Runtime) sanBeforeCommit(ending uint64, dead []deadRange) {
	s := rt.san
	if s == nil {
		return
	}
	for _, d := range dead {
		s.ForgetRange(d.start, int(d.end-d.start))
	}
	s.CheckCommit(ending)
}

// sanTrack mirrors one tracking registration into the sanitizer and runs
// rule R4: a registration from a thread whose checkpoint-allow window is
// open races the checkpointer, so the epoch the store lands in is undefined.
// The system thread is never gated and is exempt from the window rule.
func (t *Thread) sanTrack(s *psan.Sanitizer, a pmem.Addr) {
	if t.id >= 0 && t.rt.flags[t.id].v.Load() {
		s.ReportStoreOutsideWindow(a)
	}
	s.NoteTracked(a)
}

// Sanitizer returns the attached persistency sanitizer, or nil when the
// runtime is not sanitized (Config.Sanitize unset and RESPCT_SANITIZE
// empty, or SkipFlush).
func (rt *Runtime) Sanitizer() *psan.Sanitizer { return rt.san }

// SanFindings renders the sanitizer's collected violations one string each;
// nil when the runtime is not sanitized or clean.
func (rt *Runtime) SanFindings() []string {
	if rt.san == nil {
		return nil
	}
	f := rt.san.Findings()
	if len(f) == 0 {
		return nil
	}
	return f
}
