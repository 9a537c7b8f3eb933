package crashexplore

import (
	"fmt"
	"sort"
	"time"

	"github.com/respct/respct/internal/pmem"
)

// Options configures one exploration.
type Options struct {
	// Budget bounds how many crash points are executed. 0 means
	// exhaustive: every image-changing write-back in the reference trace.
	// When the candidate set exceeds the budget, points are sampled —
	// annotation neighbourhoods (epoch commits, collision-log traffic)
	// first, then an even stride across the rest.
	Budget int

	// Actions are scripted spontaneous write-backs (cache evictions)
	// injected into both the reference run and every re-execution, keyed
	// to trace sequence numbers. They perturb the persistence schedule
	// without breaking determinism.
	Actions []pmem.Action

	// ReproDir, when non-empty, receives a minimized repro file for the
	// earliest failing crash point.
	ReproDir string

	// Sanitize attaches the runtime persistency sanitizer (internal/psan)
	// to the reference run. Findings short-circuit the exploration: a
	// workload that breaks flush discipline on its straight-line path will
	// fail crash points for the same root cause, so the sanitizer report —
	// which names the violating store — is the better diagnostic. The
	// crash-point re-executions stay unsanitized (the sanitizer is a pure
	// observer, so the reference trace is unchanged either way).
	Sanitize bool
}

// Failure is one crash point whose recovery broke the durability contract.
type Failure struct {
	// Seq is the trace sequence number crashed after.
	Seq uint64

	// Err describes the divergence (or the recovery error).
	Err string

	// FailedEpochs are the per-heap failed epochs recovery reported, when
	// recovery itself succeeded.
	FailedEpochs []uint64
}

// Report summarises one exploration.
type Report struct {
	Workload string

	// Events is the reference trace length; WriteBacks counts its line
	// write-back events; OrderingPoints counts the candidate crash points
	// (write-backs that changed the persistent image).
	Events         int
	WriteBacks     int
	OrderingPoints int

	// Explored counts crash points actually executed; Deduped, the subset
	// whose persistent image matched an already-checked image (recovery
	// skipped); Skipped, candidates dropped by budget sampling.
	Explored int
	Deduped  int
	Skipped  int
	Sampled  bool

	Failures  []Failure
	ReproPath string
	Elapsed   time.Duration

	// Sanitized records that the reference run carried the persistency
	// sanitizer; SanFindings holds its findings (exploration stops at the
	// reference run when any exist).
	Sanitized   bool
	SanFindings []string
}

// Explore records a reference trace for w, crashes it at every candidate
// ordering point (or a budgeted sample), recovers, and checks buffered
// durable linearizability after each crash. It returns an error only when
// exploration itself cannot proceed (setup failure, nondeterministic
// workload); durability violations are reported in Report.Failures.
func Explore(w *Workload, opt Options) (*Report, error) {
	start := time.Now()
	ref, refRun, err := runOnce(w, opt.Actions, -1, opt.Sanitize)
	if err != nil {
		return nil, fmt.Errorf("crashexplore: reference run: %w", err)
	}
	events := ref.Events()
	rep := &Report{Workload: w.Name(), Events: len(events), Sanitized: opt.Sanitize}
	if opt.Sanitize {
		if rep.SanFindings = refRun.SanFindings(); len(rep.SanFindings) > 0 {
			// The straight-line run already broke the protocol; crash-point
			// exploration would only rediscover the same bug less precisely.
			rep.Elapsed = time.Since(start)
			return rep, nil
		}
	}
	var candidates []uint64
	for _, e := range events {
		if e.Kind == pmem.EvWriteBack {
			rep.WriteBacks++
			if e.Changed {
				candidates = append(candidates, e.Seq)
			}
		}
	}
	rep.OrderingPoints = len(candidates)

	points := candidates
	if opt.Budget > 0 && len(candidates) > opt.Budget {
		points = samplePoints(events, candidates, opt.Budget)
		rep.Sampled = true
		rep.Skipped = len(candidates) - len(points)
	}

	seen := make(map[uint64]bool) // persistent-image hashes already checked
	for _, k := range points {
		rec2, run2, err := runOnce(w, opt.Actions, int64(k), false)
		if err != nil {
			return nil, fmt.Errorf("crashexplore: crash point %d: %w", k, err)
		}
		ev2 := rec2.Events()
		if uint64(len(ev2)) <= k || pmem.TraceHash(ev2[:k+1]) != pmem.TraceHash(events[:k+1]) {
			return nil, fmt.Errorf(
				"crashexplore: workload %q is nondeterministic: replay of crash point %d diverged from the reference trace prefix",
				w.Name(), k)
		}
		rep.Explored++
		img := imageHash(rec2.Heaps())
		if seen[img] {
			rep.Deduped++
			continue
		}
		seen[img] = true
		if _, f := checkCrashPoint(run2, k); f != nil {
			rep.Failures = append(rep.Failures, *f)
		}
	}

	if len(rep.Failures) > 0 && opt.ReproDir != "" {
		// Failures are found in ascending seq order, so Failures[0] is
		// already the minimal crash point.
		path, err := writeRepro(opt.ReproDir, w.Name(), opt.Actions, events, rep.Failures[0])
		if err != nil {
			return nil, err
		}
		rep.ReproPath = path
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// runOnce executes w with actions scripted and, when crashSeq >= 0, every
// heap crashed immediately after trace event crashSeq. The recorder is
// detached before returning so recovery runs untraced. sanitize arms the
// persistency sanitizer on the workload's runtimes.
func runOnce(w *Workload, actions []pmem.Action, crashSeq int64, sanitize bool) (*pmem.Recorder, *Run, error) {
	rec := pmem.NewRecorder()
	if crashSeq >= 0 {
		// Registered before the script so the crash fires first when both
		// land on the same event: the scripted eviction then no-ops
		// instead of extending the persistent image past the crash point.
		rec.CrashAllAt(uint64(crashSeq))
	}
	rec.Script(actions)
	run, err := w.Setup(rec, sanitize)
	if err != nil {
		return nil, nil, err
	}
	if err := run.Execute(); err != nil {
		return nil, nil, err
	}
	rec.Detach()
	return rec, run, nil
}

// checkCrashPoint recovers run's heaps and checks each against the state
// certified at its failed epoch minus one (crash.Checker.Check). The
// per-heap failed epochs are returned alongside any violation; they are nil
// when recovery itself failed.
func checkCrashPoint(run *Run, seq uint64) ([]uint64, *Failure) {
	recs, err := run.Check()
	var epochs []uint64
	for _, rv := range recs {
		epochs = append(epochs, rv.FailedEpoch)
	}
	if err != nil {
		return epochs, &Failure{Seq: seq, Err: err.Error(), FailedEpochs: epochs}
	}
	return epochs, nil
}

// imageHash combines every heap's persistent-image hash into one value.
// Two crash points with equal image hashes recover identically (recovery is
// a deterministic function of the persistent image), so the second is
// skipped.
func imageHash(heaps []*pmem.Heap) uint64 {
	const prime64 = 1099511628211
	h := uint64(1469598103934665603)
	for _, heap := range heaps {
		x := heap.HashPersistent()
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	return h
}

// samplePoints picks at most budget candidates. Candidates within
// annotationWindow trace events of a semantic annotation (epoch commit,
// collision-log arm/append) are taken first — commit-ordering bugs cluster
// there — then the remainder is covered with an even stride. The result is
// sorted ascending and deterministic.
func samplePoints(events []pmem.TraceEvent, candidates []uint64, budget int) []uint64 {
	const annotationWindow = 6
	var annSeqs []uint64
	for _, e := range events {
		if e.Kind == pmem.EvAnnotation {
			annSeqs = append(annSeqs, e.Seq)
		}
	}
	nearAnnotation := func(c uint64) bool {
		i := sort.Search(len(annSeqs), func(i int) bool { return annSeqs[i]+annotationWindow >= c })
		return i < len(annSeqs) && annSeqs[i] <= c+annotationWindow
	}

	picked := make(map[uint64]bool, budget)
	var rest []uint64
	for _, c := range candidates {
		if len(picked) < budget && nearAnnotation(c) {
			picked[c] = true
		} else {
			rest = append(rest, c)
		}
	}
	if n := budget - len(picked); n > 0 && len(rest) > 0 {
		stride := len(rest) / n
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(rest) && len(picked) < budget; i += stride {
			picked[rest[i]] = true
		}
	}
	out := make([]uint64, 0, len(picked))
	for c := range picked {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
