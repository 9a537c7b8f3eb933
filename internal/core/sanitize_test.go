package core

import (
	"os"
	"strings"
	"testing"

	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/psan"
)

func newSanitizedRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	cfg.Sanitize = true
	rt, err := NewRuntime(pmem.New(pmem.Config{Size: 8 << 20}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Sanitizer() == nil {
		t.Fatal("Config.Sanitize set but no sanitizer attached")
	}
	return rt
}

func violationsByRule(vs []psan.Violation, r psan.Rule) []psan.Violation {
	var out []psan.Violation
	for _, v := range vs {
		if v.Rule == r {
			out = append(out, v)
		}
	}
	return out
}

// The seeded commit-before-flush fault is the canonical rule-R1 scenario: a
// synchronous checkpoint publishes the epoch word while its tracked lines are
// still dirty. The sanitizer must name the commit, the epoch and the store.
func TestSanitizerCatchesCommitBeforeFlushFault(t *testing.T) {
	rt := newSanitizedRuntime(t, Config{Threads: 1})
	th := rt.Thread(0)
	v := Cell(rt.Arena().AllocCells(th, 1), 0)
	th.Init(v, 1)

	rt.SetCommitBeforeFlushFault(true)
	info := rt.CheckpointIdle()
	rt.SetCommitBeforeFlushFault(false)

	r1 := violationsByRule(rt.Sanitizer().Violations(), psan.RuleCommitUnflushed)
	if len(r1) == 0 {
		t.Fatal("commit-before-flush fault produced no commit-unflushed finding")
	}
	cellLine := pmem.LineOf(v.Addr())
	var hit *psan.Violation
	for i := range r1 {
		if r1[i].Line == cellLine {
			hit = &r1[i]
		}
	}
	if hit == nil {
		t.Fatalf("no finding names the initialised cell's line %d: %v", cellLine, r1)
	}
	if hit.Epoch != info.Epoch {
		t.Fatalf("finding epoch = %d, want the faulted commit's %d", hit.Epoch, info.Epoch)
	}
	// This test lives in package core, so its own frames are skipped by the
	// site filter; exact-site assertions live in the psan unit suite.
	if hit.StoreSite == "" || hit.StoreSite == "unknown" {
		t.Fatalf("store site = %q, want a resolved frame", hit.StoreSite)
	}

	// Control: the next, correctly ordered checkpoint adds nothing.
	before := len(rt.Sanitizer().Violations())
	th.Update(v, 2)
	rt.CheckpointIdle()
	if got := len(rt.Sanitizer().Violations()); got != before {
		t.Fatalf("clean checkpoint grew findings from %d to %d", before, got)
	}
}

// Regression fixture for a recovery bug this codebase shipped: finishInit
// must mark recovery-replayed addresses in the async pending bitmaps, or the
// first drain's test-and-clear skips their lines and commits an epoch that
// never flushed them. faultSkipReplayMarks re-seeds the bug; the sanitizer
// must convert the would-be silent data loss into a rule-R1 finding.
func TestSanitizerCatchesSkippedReplayMarks(t *testing.T) {
	run := func(t *testing.T, fault bool) []psan.Violation {
		t.Helper()
		h := pmem.New(pmem.Config{Size: 8 << 20})
		cfg := Config{Threads: 1, AsyncFlush: true, SerialFlush: true, Sanitize: true}
		rt, err := NewRuntime(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		th := rt.Thread(0)
		v := Cell(rt.Arena().AllocCells(th, 1), 0)
		th.Init(v, 1)
		mustCheckpointSolo(t, rt)
		rt.WaitDrain() // v=1 durable

		// Touch v in the epoch the crash will interrupt, and force the whole
		// volatile image into NVMM so recovery sees the tagged cell and must
		// roll it back (and re-register it in the system flush list).
		th.Update(v, 2)
		h.EvictAll()
		h.Crash()

		faultSkipReplayMarks = fault
		rt2, rep, err := Recover(h, cfg, 0)
		faultSkipReplayMarks = false
		if err != nil {
			t.Fatal(err)
		}
		if rep.CellsRolledBack == 0 {
			t.Fatal("recovery rolled back nothing; the fixture never armed")
		}
		if got := rt2.Read(v); got != 1 {
			t.Fatalf("recovered value = %d, want 1", got)
		}

		// Resume in the failed epoch. The cell is already tagged with it, so
		// this store updates the record in place without re-registering —
		// the replayed registration is the line's only route into the drain.
		rt2.Thread(0).Update(v, 5)
		mustCheckpointSolo(t, rt2)
		rt2.WaitDrain()
		return rt2.Sanitizer().Violations()
	}

	t.Run("fault", func(t *testing.T) {
		vs := run(t, true)
		r1 := violationsByRule(vs, psan.RuleCommitUnflushed)
		if len(r1) == 0 {
			t.Fatalf("skipped replay marks went undetected; findings: %v", vs)
		}
	})
	t.Run("control", func(t *testing.T) {
		if vs := run(t, false); len(vs) != 0 {
			t.Fatalf("clean recovery produced findings: %v", vs)
		}
	})
}

// Regression fixture for the other shipped recovery bug: recovery must bound
// its walk of the carved region by the bump cursor as the collision log's
// replay leaves it. The log holds
// the bump cursor's last durable value; the rolled-back (not-yet-durable)
// bump extends the walk into blocks whose headers never reached NVMM.
// faultWalkBeforeReplay re-seeds the inversion, which must surface as a
// corrupt-block-header error rather than a silent mis-scan.
func TestRecoverWalkBeforeReplayRegression(t *testing.T) {
	rt := newAsyncRuntime(t, 1, false)
	h := rt.Heap()
	th := rt.Thread(0)

	// Warm cut: one carve makes the bump cursor's current value durable.
	v := Cell(rt.Arena().AllocCells(th, 1), 0)
	th.Init(v, 1)
	mustCheckpointSolo(t, rt)
	rt.WaitDrain()

	// Epoch N: carve fresh blocks. Their headers stay in the cache — the
	// drain that owes them to NVMM is about to be stalled.
	for i := 0; i < 4; i++ {
		th.Init(Cell(rt.Arena().AllocCells(th, 1), 0), uint64(i))
	}
	entered, release := stallDrain(rt)
	mustCheckpointSolo(t, rt)
	<-entered

	// Epoch N+1: another carve double-epoch-collides on the bump cell,
	// evicting the last durable bump from its backup into the collision log.
	th.Init(Cell(rt.Arena().AllocCells(th, 1), 0), 99)

	// The dangerous NVMM image: the bump cell's post-collision state (its
	// backup now holds epoch N's not-yet-durable cursor) reaches NVMM — say,
	// by cache eviction — while epoch N's block headers do not.
	f := h.NewFlusher()
	f.CLWB(rt.Arena().bump.Addr())
	f.SFence()

	h.Crash() // epoch N's block headers never reached NVMM
	close(release)
	rt.WaitDrain()

	faultWalkBeforeReplay = true
	_, _, err := Recover(h, Config{Threads: 1, AsyncFlush: true}, 0)
	faultWalkBeforeReplay = false
	if err == nil || !strings.Contains(err.Error(), "corrupt block header") {
		t.Fatalf("walk-before-replay recovery error = %v, want a corrupt block header", err)
	}

	// The correct order recovers, applies the log, and lands on the warm cut.
	rt2, rep, err := Recover(h, Config{Threads: 1, AsyncFlush: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DrainInterrupted {
		t.Fatal("recovery did not detect the interrupted drain")
	}
	if rep.CollisionsApplied == 0 {
		t.Fatal("no collision-log entries applied; the fixture never armed")
	}
	if got := rt2.Read(v); got != 1 {
		t.Fatalf("recovered value = %d, want 1", got)
	}
}

// The tracked-store fast path must stay allocation-free in steady state,
// with and without the shadow heap attached: the sanitizer uses fixed-size
// stack captures and preallocated line state precisely so that turning it on
// does not change the workload's allocation behaviour.
func TestStoreTrackedZeroAllocs(t *testing.T) {
	if os.Getenv("RESPCT_SANITIZE") != "" {
		t.Skip("RESPCT_SANITIZE rebuilds runtimes sanitized; allocation baseline not comparable")
	}
	check := func(t *testing.T, rt *Runtime) {
		t.Helper()
		th := rt.Thread(0)
		a := rt.Arena().AllocRaw(th, 8)
		th.StoreTracked(a, 1) // warm the tracking list and line cache
		if avg := testing.AllocsPerRun(1000, func() { th.StoreTracked(a, 2) }); avg != 0 {
			t.Fatalf("StoreTracked allocates %.2f per op, want 0", avg)
		}
	}
	t.Run("plain", func(t *testing.T) {
		check(t, newTestRuntime(t, 1, 0))
	})
	t.Run("sanitized", func(t *testing.T) {
		check(t, newSanitizedRuntime(t, Config{Threads: 1}))
	})
}
