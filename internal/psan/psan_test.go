package psan_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/psan"
)

// below resolves the source line immediately after the caller's, in the
// sanitizer's site format. Put the marker on the line above the event under
// test and the captured site must match exactly.
func below() string {
	_, f, l, _ := runtime.Caller(1)
	return fmt.Sprintf("%s:%d", filepath.Base(f), l+1)
}

func newSanitizedHeap(t *testing.T) (*pmem.Heap, *psan.Sanitizer) {
	t.Helper()
	h := pmem.New(pmem.Config{Size: 1 << 20})
	s := psan.New(h, psan.ModeCollect)
	s.SetPhase(psan.PhaseRun)
	return h, s
}

func TestCommitUnflushedSites(t *testing.T) {
	h, s := newSanitizedHeap(t)
	s.AdvanceEpoch(5)
	a := h.DataStart()

	wantStore := below()
	h.Store64(a, 2)
	s.NoteTracked(a)

	wantCommit := below()
	s.CheckCommit(5)

	vs := s.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one", vs)
	}
	v := vs[0]
	if v.Rule != psan.RuleCommitUnflushed {
		t.Fatalf("rule = %v, want commit-unflushed", v.Rule)
	}
	if v.Epoch != 5 {
		t.Fatalf("epoch = %d, want 5", v.Epoch)
	}
	if v.Site != wantCommit {
		t.Fatalf("site = %q, want the CheckCommit call at %q", v.Site, wantCommit)
	}
	if v.StoreSite != wantStore {
		t.Fatalf("store site = %q, want the dirtying store at %q", v.StoreSite, wantStore)
	}

	// Flushed and fenced, the same commit is clean.
	f := h.NewFlusher()
	f.CLWB(a)
	f.SFence()
	s.CheckCommit(5)
	if got := len(s.Violations()); got != 1 {
		t.Fatalf("violations after a proper flush = %d, want still 1", got)
	}
}

func TestUntrackedFlushSites(t *testing.T) {
	h, s := newSanitizedHeap(t)
	s.AdvanceEpoch(3)
	a := h.DataStart()

	wantStore := below()
	h.Store64(a, 7)
	f := h.NewFlusher()
	wantFlush := below()
	f.CLWB(a)

	vs := s.Violations()
	if len(vs) != 1 || vs[0].Rule != psan.RuleUntrackedFlush {
		t.Fatalf("violations = %v, want one untracked-flush", vs)
	}
	if vs[0].Site != wantFlush || vs[0].StoreSite != wantStore {
		t.Fatalf("sites = (%q stored %q), want (%q stored %q)",
			vs[0].Site, vs[0].StoreSite, wantFlush, wantStore)
	}

	// An exempt manual-persistence region takes the same sequence silently.
	b := a + 4*pmem.LineSize
	s.ExemptRange(b, pmem.LineSize)
	h.Store64(b, 9)
	f.CLWB(b)
	f.SFence()
	if got := len(s.Violations()); got != 1 {
		t.Fatalf("violations after exempt flush = %d, want still 1", got)
	}
}

func TestPublishBeforePayloadUnflushed(t *testing.T) {
	h, s := newSanitizedHeap(t)
	s.AdvanceEpoch(4)
	cursorWord := h.DataStart()
	payload := h.DataStart() + pmem.LineSize
	s.RegisterCursor(cursorWord, payload, 2*pmem.LineSize)

	wantStore := below()
	h.Store64(payload+8, 11)
	wantPub := below()
	h.Store64(cursorWord, 1)

	vs := s.Violations()
	if len(vs) != 1 || vs[0].Rule != psan.RulePublishBeforePayload {
		t.Fatalf("violations = %v, want one publish-before-payload", vs)
	}
	if vs[0].Site != wantPub || vs[0].StoreSite != wantStore {
		t.Fatalf("sites = (%q stored %q), want (%q stored %q)",
			vs[0].Site, vs[0].StoreSite, wantPub, wantStore)
	}
	if vs[0].Line != pmem.LineOf(payload+8) {
		t.Fatalf("line = %d, want the dirty payload line %d", vs[0].Line, pmem.LineOf(payload+8))
	}
}

func TestPublishBeforePayloadMissingFence(t *testing.T) {
	h, s := newSanitizedHeap(t)
	s.AdvanceEpoch(4)
	cursorWord := h.DataStart()
	payload := h.DataStart() + pmem.LineSize
	s.RegisterCursor(cursorWord, payload, pmem.LineSize)

	// Tracked payload, clwb issued — but no fence: the write-back has not
	// happened, so the publish still races the payload's durability.
	h.Store64(payload, 21)
	s.NoteTracked(payload)
	f := h.NewFlusher()
	f.CLWB(payload)
	h.Store64(cursorWord, 1)
	vs := s.Violations()
	if len(vs) != 1 || vs[0].Rule != psan.RulePublishBeforePayload {
		t.Fatalf("violations = %v, want one publish-before-payload (clwb without sfence)", vs)
	}

	// Fence, republish: clean.
	f.SFence()
	h.Store64(cursorWord, 2)
	if got := len(s.Violations()); got != 1 {
		t.Fatalf("violations after fenced republish = %d, want still 1", got)
	}
}

func TestStoreOutsideWindowThroughRuntime(t *testing.T) {
	rt, err := core.NewRuntime(pmem.New(pmem.Config{Size: 8 << 20}),
		core.Config{Threads: 1, Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.Thread(0)
	a := rt.Arena().AllocRaw(th, 8)

	th.CheckpointAllow()
	wantSite := below()
	th.StoreTracked(a, 1)
	th.CheckpointPrevent(nil)

	var r4 []psan.Violation
	for _, v := range rt.Sanitizer().Violations() {
		if v.Rule == psan.RuleStoreOutsideWindow {
			r4 = append(r4, v)
		}
	}
	if len(r4) != 1 {
		t.Fatalf("store-outside-window findings = %v, want exactly one", r4)
	}
	if r4[0].Addr != a || r4[0].Site != wantSite {
		t.Fatalf("finding = (%#x at %q), want (%#x at %q)",
			uint64(r4[0].Addr), r4[0].Site, uint64(a), wantSite)
	}

	// The same store with the window closed is the sanctioned idiom.
	th.StoreTracked(a, 2)
	if got := len(rt.Sanitizer().Violations()); got != 1 {
		t.Fatalf("violations after in-window store = %d, want still 1", got)
	}
}

// observed is what each of the two heap observers saw of one run: the
// recorder's trace and the sanitizer's findings.
type observed struct {
	events   int
	trace    uint64
	findings []string
}

// observeRun drives one fixed sequence of heap events — flushes, a
// write-back that changes nothing, an eviction, an annotation, CAS/Add
// stores, a crash and a post-reboot flush — with the chosen observers
// attached, and returns what each of them saw. The sanitizer's bookkeeping
// calls never touch the heap, so every configuration sees the same events.
func observeRun(t *testing.T, withRec, withSan bool) observed {
	t.Helper()
	h := pmem.New(pmem.Config{Size: 1 << 20})
	var s *psan.Sanitizer
	if withSan {
		s = psan.New(h, psan.ModeCollect)
		s.SetPhase(psan.PhaseRun)
		s.AdvanceEpoch(2)
	}
	var rec *pmem.Recorder
	if withRec {
		rec = pmem.NewRecorder()
		rec.Attach(h)
	}
	tracked := func(a pmem.Addr) {
		if s != nil {
			s.NoteTracked(a)
		}
	}

	line := func(i int) pmem.Addr { return h.DataStart() + pmem.Addr(i*pmem.LineSize) }
	f := h.NewFlusher()
	h.Store64(line(0), 1) // tracked, flushed and fenced: clean
	tracked(line(0))
	f.Persist(line(0))
	h.Store64(line(1), 2) // never tracked, flushed by hand: R2
	f.Persist(line(1))
	h.Store64(line(0), 1) // the same word again: a write-back that changes nothing
	f.Persist(line(0))
	h.Store64(line(2), 3) // tracked but only evicted: R1 at the commit check
	tracked(line(2))
	h.EvictLine(pmem.LineOf(line(2)))
	h.Annotate("observe", 7)
	if s != nil {
		s.RegisterCursor(line(3), line(4), pmem.LineSize)
	}
	h.Store64(line(4), 4) // payload still dirty when its cursor is published: R3
	h.Store64(line(3), 1)
	h.CAS64(line(5), 0, 5)
	h.Add64(line(5), 1)
	tracked(line(4))
	tracked(line(5))
	f.PersistRange(line(4), 2*pmem.LineSize)
	if s != nil {
		s.CheckCommit(2)
	}
	h.Crash()
	h.Reopen()
	h.Store64(line(6), 6) // after the reboot: the recorder still sees it
	f.Persist(line(6))

	var o observed
	if rec != nil {
		ev := rec.Events()
		o.events, o.trace = len(ev), pmem.TraceHash(ev)
	}
	if s != nil {
		o.findings = s.Findings()
	}
	return o
}

// TestObserversCompose attaches a recorder and a sanitizer to one heap: each
// must see exactly what it sees attached alone — the same trace, the same
// findings.
func TestObserversCompose(t *testing.T) {
	all := observeRun(t, true, true)
	rec := observeRun(t, true, false)
	san := observeRun(t, false, true)

	if rec.events == 0 || all.events != rec.events || all.trace != rec.trace {
		t.Errorf("trace composed %d events %#x, alone %d events %#x", all.events, all.trace, rec.events, rec.trace)
	}
	rules := map[string]bool{}
	for _, v := range san.findings {
		for _, r := range []psan.Rule{psan.RuleCommitUnflushed, psan.RuleUntrackedFlush, psan.RulePublishBeforePayload} {
			if strings.Contains(v, r.String()) {
				rules[r.String()] = true
			}
		}
	}
	if len(rules) != 3 {
		t.Errorf("sanitizer alone found %v, want R1, R2 and R3", san.findings)
	}
	if !slices.Equal(all.findings, san.findings) {
		t.Errorf("findings composed %v, alone %v", all.findings, san.findings)
	}
}

// TestRecoveredRuntimeOwnsTheSanitizer pins the crash rule: a sanitizer
// detaches itself at its heap's crash, so after Recover only the recovered
// runtime's sanitizer observes the heap — or none, when it is unsanitized.
func TestRecoveredRuntimeOwnsTheSanitizer(t *testing.T) {
	if os.Getenv("RESPCT_SANITIZE") != "" {
		t.Skip("RESPCT_SANITIZE sanitizes every runtime; the unsanitized recovery cannot be built")
	}
	for _, sanitize := range []bool{false, true} {
		t.Run(fmt.Sprintf("sanitize=%v", sanitize), func(t *testing.T) {
			h := pmem.New(pmem.Config{Size: 8 << 20})
			rt, err := core.NewRuntime(h, core.Config{Threads: 1, Sanitize: true})
			if err != nil {
				t.Fatal(err)
			}
			crashed := rt.Sanitizer()
			h.Crash()
			rt2, _, err := core.Recover(h, core.Config{Threads: 1, Sanitize: sanitize}, 1)
			if err != nil {
				t.Fatal(err)
			}
			before := len(crashed.Violations())

			// A line the tracking layer never saw, flushed by hand: rule R2
			// for any sanitizer that observes it.
			a := pmem.LineAddr(h.Lines() - 1)
			h.Store64(a, 1)
			h.NewFlusher().Persist(a)

			if got := crashed.Violations(); len(got) != before {
				t.Fatalf("the crashed runtime's sanitizer still observes the heap: %v", got[before:])
			}
			s := rt2.Sanitizer()
			if !sanitize {
				if s != nil {
					t.Fatal("unsanitized recovery carries a sanitizer")
				}
				return
			}
			if vs := s.Violations(); len(vs) != 1 || vs[0].Rule != psan.RuleUntrackedFlush {
				t.Fatalf("recovered runtime's sanitizer found %v, want one untracked-flush", vs)
			}
		})
	}
}
