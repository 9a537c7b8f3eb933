package apps

import (
	"math"
	"slices"
	"testing"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
)

func appRuntime(t testing.TB, threads int, size int64) *core.Runtime {
	t.Helper()
	h := pmem.New(pmem.Config{Size: size})
	rt, err := core.NewRuntime(h, core.Config{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// built is an application built on a fresh runtime.
type built interface {
	Done() bool
	Progress() (done, total int)
}

// appCases is the table the run-to-completion tests share, one entry per
// application: start builds it and returns a function that runs it and
// reports its output, and want computes the transient output. Counts
// compare exactly, float sums within 1e-9 relative.
var appCases = map[string]struct {
	threads int
	start   func(rt *core.Runtime) (built, func() []float64, error)
	want    func() []float64
	exact   bool
}{
	"MatMul": {3, func(rt *core.Runtime) (built, func() []float64, error) {
		m, err := NewMatMul(rt, 0, 48, 7)
		return m, func() []float64 { m.Run(); return []float64{m.Checksum()} }, err
	}, func() []float64 { return []float64{MatMulTransient(48, 3, 7)} }, false},
	"LR": {4, func(rt *core.Runtime) (built, func() []float64, error) {
		l, err := NewLR(rt, 0, 20000, 1000, 5)
		return l, func() []float64 { l.Run(); return lrOutput(l.Result()) }, err
	}, func() []float64 { return lrOutput(LRTransient(20000, 4, 5)) }, false},
	"Swaptions": {4, func(rt *core.Runtime) (built, func() []float64, error) {
		s, err := NewSwaptions(rt, 0, 16, 400, 100, 3)
		return s, func() []float64 { s.Run(); return []float64{s.Checksum()} }, err
	}, func() []float64 { return []float64{SwaptionsTransient(16, 400, 4, 3)} }, false},
	"Dedup": {4, func(rt *core.Runtime) (built, func() []float64, error) {
		d, err := NewDedup(rt, 0, 600, 150, 256, 17)
		return d, func() []float64 { return dedupOutput(d.Run()) }, err
	}, func() []float64 { return dedupOutput(DedupTransient(600, 150, 4, 17)) }, true},
}

// lrOutput is the five sums and the slope.
func lrOutput(r LRResult) []float64 { return []float64{r.SX, r.SY, r.SXX, r.SYY, r.SXY, r.Slope()} }

func dedupOutput(r DedupResult) []float64 {
	return []float64{float64(r.Unique), float64(r.TotalOutput)}
}

// checkApp runs the named application to completion and checks it against
// its transient twin, then runs it again: the done cell must make the second
// Run a no-op that leaves the output as it was. It returns the output.
func checkApp(t *testing.T, name string) []float64 {
	c := appCases[name]
	app, run, err := c.start(appRuntime(t, c.threads, 4<<20))
	if err != nil {
		t.Fatal(err)
	}
	if app.Done() {
		t.Fatal("done before running")
	}
	got, want := run(), c.want()
	for i, w := range want {
		if !almostEqual(got[i], w) || c.exact && got[i] != w {
			t.Fatalf("respct output %v, transient %v", got, want)
		}
	}
	if !app.Done() {
		t.Fatal("not marked done")
	}
	if done, total := app.Progress(); done != total {
		t.Fatalf("%d of %d work units unaccounted", total-done, total)
	}
	if again := run(); !slices.Equal(again, got) {
		t.Fatalf("second Run changed the output: %v vs %v", again, got)
	}
	return got
}

func TestMatMulMatchesTransient(t *testing.T)    { checkApp(t, "MatMul") }
func TestSwaptionsMatchesTransient(t *testing.T) { checkApp(t, "Swaptions") }
func TestDedupMatchesTransient(t *testing.T)     { checkApp(t, "Dedup") }

func TestLRMatchesTransient(t *testing.T) {
	// The synthetic data has slope ~3.5.
	if slope := checkApp(t, "LR")[5]; slope < 3.0 || slope > 4.0 {
		t.Fatalf("implausible slope %v", slope)
	}
}

// Reopening refuses a root with no job and a runtime with fewer threads
// than the job partitions its work over.
func TestOpenValidatesDescriptor(t *testing.T) {
	rt := appRuntime(t, 4, 4<<20)
	if _, err := OpenLR(rt, 0); err == nil {
		t.Fatal("opened an empty root")
	}
	if _, err := NewLR(rt, 0, 1000, 100, 1); err != nil {
		t.Fatal(err)
	}
	rt.CheckpointIdle()
	rt.Heap().Crash()
	rt2, _, err := core.Recover(rt.Heap(), core.Config{Threads: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLR(rt2, 0); err == nil {
		t.Fatal("opened a 4-thread job on a 2-thread runtime")
	}
}

func TestDedupRequiresThreeThreads(t *testing.T) {
	rt := appRuntime(t, 2, 4<<20)
	if _, err := NewDedup(rt, 0, 10, 5, 16, 1); err == nil {
		t.Fatal("accepted 2 threads")
	}
}

func TestSplitRange(t *testing.T) {
	covered := make([]bool, 10)
	for th := 0; th < 3; th++ {
		lo, hi := splitRange(10, 3, th)
		for i := lo; i < hi; i++ {
			if covered[i] {
				t.Fatalf("index %d covered twice", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("index %d not covered", i)
		}
	}
}

func TestLRBatchSizesAgree(t *testing.T) {
	// Batch granularity must not change the result, only the RP rate.
	const n, threads, seed = 5000, 2, 29
	want := LRTransient(n, threads, seed)
	for _, batch := range []int{1, 7, 1000} {
		rt := appRuntime(t, threads, 4<<20)
		l, err := NewLR(rt, 0, n, batch, seed)
		if err != nil {
			t.Fatal(err)
		}
		l.Run()
		if got := l.Result(); !almostEqual(got.SXY, want.SXY) {
			t.Fatalf("batch %d: SXY %v vs %v", batch, got.SXY, want.SXY)
		}
	}
}

func TestLRInterceptPlausible(t *testing.T) {
	res := LRTransient(50000, 2, 5)
	// Synthetic data: y = 3.5x + 11 + noise in [-1, 1).
	if ic := res.Intercept(); ic < 9 || ic > 13 {
		t.Fatalf("intercept %v implausible", ic)
	}
}

func TestMatMulRunTwiceIsIdempotent(t *testing.T) {
	const n, threads, seed = 24, 2, 3
	rt := appRuntime(t, threads, 4<<20)
	m, err := NewMatMul(rt, 0, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	first := m.Checksum()
	m.Run() // the done cell short-circuits; nothing recomputed or corrupted
	if got := m.Checksum(); got != first {
		t.Fatalf("second Run changed the checksum: %v vs %v", got, first)
	}
}

func TestSwaptionsDoneAfterRun(t *testing.T) {
	rt := appRuntime(t, 2, 4<<20)
	s, err := NewSwaptions(rt, 0, 4, 100, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Fatal("done before running")
	}
	s.Run()
	if !s.Done() {
		t.Fatal("not done after running")
	}
	first := s.Checksum()
	s.Run()
	if s.Checksum() != first {
		t.Fatal("re-run changed the result")
	}
}

func TestDedupResumeAfterCompletion(t *testing.T) {
	const nChunks, unique, threads, seed = 300, 80, 3, 31
	rt := appRuntime(t, threads, 4<<20)
	d, err := NewDedup(rt, 0, nChunks, unique, 128, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := d.Run()
	// A second Run finds nothing to replay and returns the same result.
	if got := d.Run(); got != want {
		t.Fatalf("re-run diverged: %+v vs %+v", got, want)
	}
}
