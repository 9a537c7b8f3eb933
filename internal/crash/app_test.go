package crash

import (
	"fmt"
	"testing"
	"time"

	"github.com/respct/respct/internal/apps"
	"github.com/respct/respct/internal/core"
)

// appRows are the four applications, each with the worker count it runs on,
// sized to run for several 0.5 ms checkpoint periods on a 2-vCPU host (at
// the sizes of the sleep-timed tests they replace, most finished before
// the first tick).
var appRows = []struct {
	name    string
	threads int
	spec    func() AppSpec
}{
	{"MatMul", 2, func() AppSpec {
		const n, seed = 256, 9
		return AppSpec{
			New:  func(rt *core.Runtime) (Job, error) { return apps.NewMatMul(rt, 0, n, seed) },
			Open: func(rt *core.Runtime) (Job, error) { return apps.OpenMatMul(rt, 0) },
			Run: func(j Job) []float64 {
				m := j.(*apps.MatMulRespct)
				m.Run()
				return []float64{m.Checksum()}
			},
			Want: []float64{apps.MatMulTransient(n, 2, seed)},
		}
	}},
	{"LR", 2, func() AppSpec {
		const n, batch, seed = 1500000, 500, 11
		want := apps.LRTransient(n, 2, seed)
		return AppSpec{
			New:  func(rt *core.Runtime) (Job, error) { return apps.NewLR(rt, 0, n, batch, seed) },
			Open: func(rt *core.Runtime) (Job, error) { return apps.OpenLR(rt, 0) },
			Run: func(j Job) []float64 {
				l := j.(*apps.LRRespct)
				l.Run()
				r := l.Result()
				return []float64{r.SX, r.SY, r.SXX, r.SYY, r.SXY}
			},
			Want: []float64{want.SX, want.SY, want.SXX, want.SYY, want.SXY},
		}
	}},
	{"Swaptions", 2, func() AppSpec {
		const nSw, trials, batch, seed = 8, 80000, 200, 13
		return AppSpec{
			New:  func(rt *core.Runtime) (Job, error) { return apps.NewSwaptions(rt, 0, nSw, trials, batch, seed) },
			Open: func(rt *core.Runtime) (Job, error) { return apps.OpenSwaptions(rt, 0) },
			Run: func(j Job) []float64 {
				s := j.(*apps.SwaptionsRespct)
				s.Run()
				return []float64{s.Checksum()}
			},
			Want: []float64{apps.SwaptionsTransient(nSw, trials, 2, seed)},
		}
	}},
	{"Dedup", 4, func() AppSpec {
		const nChunks, unique, buckets, seed = 1200, 300, 512, 23
		want := apps.DedupTransient(nChunks, unique, 4, seed)
		return AppSpec{
			New:  func(rt *core.Runtime) (Job, error) { return apps.NewDedup(rt, 0, nChunks, unique, buckets, seed) },
			Open: func(rt *core.Runtime) (Job, error) { return apps.OpenDedup(rt, 0) },
			Run: func(j Job) []float64 {
				r := j.(*apps.DedupRespct).Run()
				return []float64{float64(r.Unique), float64(r.TotalOutput)}
			},
			Want:  []float64{float64(want.Unique), float64(want.TotalOutput)},
			Exact: true,
		}
	}},
}

// TestAppSoak crashes each application mid-run, with and without chaos
// eviction, and resumes it: the recovered job cells must be the certified
// ones, and the resumed run must reach the transient output. The crash
// comes from checkpoints: four ticks after the k-th (k = seed%8+1) that
// found the job started and not done, with no checkpoint in between. A row
// none of whose runs recovered the job midway is retried, then fails (see
// RunSeeds).
func TestAppSoak(t *testing.T) {
	for _, row := range appRows {
		for _, evict := range []int{0, 32} {
			t.Run(fmt.Sprintf("%s/evict%d", row.name, evict), func(t *testing.T) {
				spec := row.spec()
				var last *App
				r := Soak[*App]{
					New: func(seed int64) (*App, error) {
						a, err := NewApp(chaosEnv(seed, row.threads, 4<<20), spec, int(seed%8)+1)
						last = a
						return a, err
					},
					Interval:   500 * time.Microsecond,
					Tick:       (*App).Tick,
					CrashTicks: 1 << 12, // a bound only: Tick crashes first
					EvictRate:  evict,
					Vacuous:    func(a *App) bool { return !a.Midway },
				}
				soak(t, r, soakSeeds(4), func(t *testing.T, rep *SoakReport) {
					t.Logf("recovered %d/%d (midway %v) after %d checkpoints; %d cells rolled back",
						last.Recovered, last.Total, last.Midway, rep.Checkpoints, rep.CellsRolledBack)
				})
			})
		}
	}
}
