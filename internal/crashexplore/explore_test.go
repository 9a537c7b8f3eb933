package crashexplore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/respct/respct/internal/pmem"
)

// pinnedTraces pins every registered workload's reference trace: its event
// count, its ordering points (image-changing write-backs, the crash-point
// candidates) and pmem.TraceHash over the whole trace. If a deliberate
// change to the runtime's flush schedule, a structure's layout, a workload's
// op stream or the trace instrumentation moves these numbers, re-derive them
// with `go test -run TestReferenceTracesPinned -v` and update — an
// *unexplained* shift means the persistence schedule changed by accident,
// which is exactly what this table exists to catch.
var pinnedTraces = map[string]struct {
	events, points int
	hash           uint64
}{
	"kv-async":           {153, 90, 0xd0a5bb4e628ab852},
	"kv-batch-async":     {152, 79, 0x7e402ea44a51064b},
	"kv-batch-sync":      {63, 48, 0xdc093bcf0b0ebc64},
	"kv-frames":          {92, 72, 0xc26be35c70013caf},
	"kv-log":             {53, 38, 0x45f9576f040b386},
	"kv-multi":           {97, 82, 0xbdbf2b708de0ad2},
	"kv-queue":           {74, 59, 0xe996d2c5056d348f},
	"kv-return-async":    {233, 139, 0x1738ebcae05f787b},
	"kv-return-sync":     {119, 99, 0xe6b961d0142400f6},
	"kv-scan":            {115, 100, 0x165e33b8057cf4cd},
	"kv-sync":            {76, 61, 0xd77c7bdb96572d77},
	"kv-ttl":             {86, 71, 0x66770fdac4ceeb1e},
	"map-async":          {117, 58, 0x5b1d5d6ab553e265},
	"map-sync":           {62, 42, 0xe85c6bf88cc82196},
	"map-sync-badcommit": {25, 15, 0xe828d7805eeaa411},
	"map-tiny":           {22, 12, 0xe36e0fe795bb7641},
	"shard-2-staggered":  {92, 72, 0x267cf43a1fb437d4},
}

// map-tiny is the enumeration fixture: small enough to explore exhaustively
// in well under a second.
var mapTiny = pinnedTraces["map-tiny"]

// TestReferenceTracesPinned runs each registered workload once, without
// crashing or exploring, and compares its reference trace against the pin.
func TestReferenceTracesPinned(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pin, ok := pinnedTraces[name]
			if !ok {
				t.Fatalf("workload %q has no pinned trace", name)
			}
			w, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			rec, _, err := runOnce(w, nil, -1, false)
			if err != nil {
				t.Fatal(err)
			}
			events := rec.Events()
			points := 0
			for _, e := range events {
				if e.Kind == pmem.EvWriteBack && e.Changed {
					points++
				}
			}
			got := pmem.TraceHash(events)
			if len(events) != pin.events || points != pin.points || got != pin.hash {
				t.Errorf("%s: reference trace = {%d, %d, %#x}, pinned {%d, %d, %#x}",
					name, len(events), points, got, pin.events, pin.points, pin.hash)
			}
		})
	}
	if len(pinnedTraces) != len(Names()) {
		t.Errorf("%d pinned traces for %d registered workloads", len(pinnedTraces), len(Names()))
	}
}

func TestMapTinyExhaustiveEnumeration(t *testing.T) {
	w, err := Lookup("map-tiny")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Explore(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != mapTiny.events {
		t.Errorf("reference trace has %d events, want %d", rep.Events, mapTiny.events)
	}
	if rep.OrderingPoints != mapTiny.points {
		t.Errorf("enumerated %d ordering points, want %d", rep.OrderingPoints, mapTiny.points)
	}
	if rep.Explored != rep.OrderingPoints {
		t.Errorf("exhaustive run explored %d of %d points", rep.Explored, rep.OrderingPoints)
	}
	if rep.Sampled || rep.Skipped != 0 {
		t.Errorf("exhaustive run reported sampling (sampled=%v skipped=%d)", rep.Sampled, rep.Skipped)
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("durability violations on map-tiny: %+v", rep.Failures)
	}
}

// TestDurabilityAcrossCrashPoints is the BDL acceptance sweep: sync, async
// and 2-shard staggered configurations must recover to a completed
// checkpoint from every explored crash point.
func TestDurabilityAcrossCrashPoints(t *testing.T) {
	cases := []struct {
		workload string
		budget   int // 0 = exhaustive
	}{
		{"map-sync", 0},
		{"map-async", 0},
		{"kv-sync", 30},
		{"kv-async", 30},
		{"kv-return-sync", 30},
		{"kv-return-async", 30},
		{"shard-2-staggered", 30},
		{"kv-frames", 30},
		{"kv-batch-sync", 30},
		{"kv-batch-async", 30},
		{"kv-scan", 30},
		{"kv-ttl", 30},
		{"kv-queue", 30},
		{"kv-log", 30},
		{"kv-multi", 30},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.workload, func(t *testing.T) {
			t.Parallel()
			budget := tc.budget
			if testing.Short() {
				// Each point is a full workload re-execution; under the race
				// detector on small CI hosts the exhaustive sweeps blow the
				// test deadline. -short keeps a sampled smoke sweep here —
				// full coverage lives in the non-short run and in the CI
				// crashexplore job (see EXPERIMENTS.md for the counts).
				budget = 6
			}
			w, err := Lookup(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Explore(w, Options{Budget: budget})
			if err != nil {
				t.Fatal(err)
			}
			if rep.OrderingPoints == 0 {
				t.Fatal("workload produced no ordering points")
			}
			for _, f := range rep.Failures {
				t.Errorf("crash point %d: %s", f.Seq, f.Err)
			}
		})
	}
}

// The async workloads only earn their keep if the drain-window collision
// machinery actually fires inside the traced region — otherwise they are
// sync workloads with extra steps.
func TestAsyncTraceCoversCollisions(t *testing.T) {
	w, err := Lookup("map-async")
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := runOnce(w, nil, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	tags := map[string]int{}
	for _, e := range rec.Events() {
		if e.Kind == pmem.EvAnnotation {
			tags[e.Tag]++
		}
	}
	for _, want := range []string{"epoch-commit", "collision-arm", "collision-append"} {
		if tags[want] == 0 {
			t.Errorf("reference trace has no %q annotation (tags: %v)", want, tags)
		}
	}
}

func TestTraceIsDeterministic(t *testing.T) {
	w, err := Lookup("map-async")
	if err != nil {
		t.Fatal(err)
	}
	rec1, _, err := runOnce(w, nil, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	rec2, _, err := runOnce(w, nil, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := rec1.Events(), rec2.Events()
	if len(e1) != len(e2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(e1), len(e2))
	}
	if pmem.TraceHash(e1) != pmem.TraceHash(e2) {
		t.Fatal("two reference runs produced different traces")
	}
}

// Scripted evictions perturb the persistence schedule (lines reach the
// image earlier than any flush asked) but must never break durability —
// eviction is always legal under PCSO.
func TestScriptedEvictionsStillDurable(t *testing.T) {
	w, err := Lookup("map-tiny")
	if err != nil {
		t.Fatal(err)
	}
	// Actions fire at trace positions, so derive them from a reference
	// trace: an evict-all right after every changed write-back hits each
	// flush window while later lines of the same batch are still dirty.
	rec, _, err := runOnce(w, nil, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	var actions []pmem.Action
	for _, e := range rec.Events() {
		if e.Kind == pmem.EvWriteBack && e.Changed {
			actions = append(actions, pmem.Action{AfterSeq: e.Seq, Heap: 0, Line: -1})
		}
	}
	rep, err := Explore(w, Options{Actions: actions})
	if err != nil {
		t.Fatal(err)
	}
	// Evictions don't add ordering points — a line's content reaches the
	// image "changed" exactly once whoever writes it back — but they do
	// lengthen the trace: the eviction events themselves, plus the later
	// flushes of those lines degrading to changed=false write-backs.
	if rep.Events <= mapTiny.events {
		t.Errorf("evictions should lengthen the trace: got %d events, unperturbed trace has %d",
			rep.Events, mapTiny.events)
	}
	for _, f := range rep.Failures {
		t.Errorf("crash point %d: %s", f.Seq, f.Err)
	}
}

// The seeded known-bad schedule: the epoch commit is made durable before
// the payload flush (the persistorder analyzer's directive-suppressed test
// hook). The explorer must catch it and emit a replayable minimized repro.
func TestCommitBeforeFlushFaultCaught(t *testing.T) {
	w, err := Lookup("map-sync-badcommit")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := Explore(w, Options{ReproDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("commit-before-flush fault was not detected")
	}
	first := rep.Failures[0]
	for _, f := range rep.Failures[1:] {
		if f.Seq < first.Seq {
			t.Errorf("failures not in ascending seq order: %d before %d", first.Seq, f.Seq)
		}
	}
	if !strings.Contains(first.Err, "diverges") {
		t.Errorf("failure should describe a state divergence, got: %s", first.Err)
	}
	if rep.ReproPath == "" {
		t.Fatal("no repro written despite failures and ReproDir set")
	}
	if _, err := os.Stat(rep.ReproPath); err != nil {
		t.Fatal(err)
	}

	r, err := Load(rep.ReproPath)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "map-sync-badcommit" || r.CrashSeq != first.Seq {
		t.Errorf("repro = {%s, %d}, want {map-sync-badcommit, %d}", r.Workload, r.CrashSeq, first.Seq)
	}
	res, err := Replay(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence == "" {
		t.Fatal("replaying the repro did not reproduce the durability violation")
	}
}

func TestReplayRejectsStaleRepro(t *testing.T) {
	w, err := Lookup("map-sync-badcommit")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := Explore(w, Options{ReproDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Load(rep.ReproPath)
	if err != nil {
		t.Fatal(err)
	}
	r.PrefixHash++ // simulate a repro recorded against different code
	if _, err := Replay(r); err == nil {
		t.Fatal("Replay accepted a repro whose trace prefix hash cannot match")
	}
}

func TestBudgetSampling(t *testing.T) {
	w, err := Lookup("map-sync")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Explore(w, Options{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sampled {
		t.Fatal("budget 10 below the candidate count should force sampling")
	}
	if rep.Explored > 10 {
		t.Errorf("explored %d points over budget 10", rep.Explored)
	}
	if rep.Skipped != rep.OrderingPoints-rep.Explored {
		t.Errorf("skipped=%d, want %d-%d", rep.Skipped, rep.OrderingPoints, rep.Explored)
	}
	if len(rep.Failures) != 0 {
		t.Errorf("unexpected failures: %+v", rep.Failures)
	}
}

func TestReproRoundTrip(t *testing.T) {
	r := &Repro{
		Version:    reproVersion,
		Workload:   "map-tiny",
		CrashSeq:   7,
		Actions:    []pmem.Action{{AfterSeq: 3, Heap: 0, Line: -1}},
		PrefixHash: 0xdeadbeefcafe,
		Failure:    "heap 0 recovered to epoch boundary C3 but state diverges: …",
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != r.Workload || got.CrashSeq != r.CrashSeq ||
		got.PrefixHash != r.PrefixHash || len(got.Actions) != 1 {
		t.Errorf("round-trip mismatch: %+v", got)
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("no-such-workload"); err == nil {
		t.Error("Lookup of unknown workload should error")
	}
	names := Names()
	found := false
	for _, n := range names {
		if n == "map-tiny" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v, missing map-tiny", names)
	}
}

// A sanitized exploration of a clean workload must behave exactly like an
// unsanitized one — the sanitizer is a pure observer, so the reference trace
// (and therefore the crash-point space) is unchanged — and report no
// findings.
func TestExploreSanitizedCleanWorkload(t *testing.T) {
	w, err := Lookup("map-sync")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Explore(w, Options{Budget: 10, Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sanitized {
		t.Fatal("report does not record the sanitized reference run")
	}
	if len(rep.SanFindings) != 0 {
		t.Fatalf("clean workload produced sanitizer findings: %v", rep.SanFindings)
	}
	if rep.Explored == 0 {
		t.Fatal("clean sanitized run skipped crash-point exploration")
	}
	for _, f := range rep.Failures {
		t.Errorf("crash point %d: %s", f.Seq, f.Err)
	}
}

// The seeded commit-before-flush workload must trip the sanitizer on its
// straight-line reference run, and the findings must short-circuit the
// crash-point loop — the sanitizer names the violating store, which the
// image-diff checker cannot.
func TestExploreSanitizedBadCommit(t *testing.T) {
	w, err := Lookup("map-sync-badcommit")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Explore(w, Options{Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SanFindings) == 0 {
		t.Fatal("bad-commit workload produced no sanitizer findings")
	}
	found := false
	for _, f := range rep.SanFindings {
		if strings.Contains(f, "commit-unflushed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("findings name no commit-unflushed violation: %v", rep.SanFindings)
	}
	if rep.Explored != 0 {
		t.Fatalf("explored %d crash points despite sanitizer findings", rep.Explored)
	}
}
