package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/respct/respct/internal/apps"
	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
)

// AppScale sizes the Fig. 13 compute applications.
type AppScale struct {
	Threads    int
	Interval   time.Duration
	MatMulN    int
	LRPoints   int
	LRBatch    int
	SwaptionsN int
	SwTrials   int
	SwBatch    int
	DedupN     int
	DedupUniq  int
	Seed       uint64
	HeapBytes  int64
}

// QuickAppScale is a CI-sized Fig. 13 configuration. Problem sizes are kept
// large enough that each application runs for at least tens of
// milliseconds, so the measured ratio reflects steady-state instrumentation
// cost rather than setup.
func QuickAppScale() AppScale {
	return AppScale{
		Threads: 4, Interval: 64 * time.Millisecond,
		MatMulN: 192, LRPoints: 4_000_000, LRBatch: 1000,
		SwaptionsN: 32, SwTrials: 30_000, SwBatch: 1000,
		DedupN: 60_000, DedupUniq: 15_000, Seed: 7,
		HeapBytes: 512 << 20,
	}
}

// PaperAppScale approaches the paper's several-second runtimes.
func PaperAppScale() AppScale {
	return AppScale{
		Threads: 16, Interval: 64 * time.Millisecond,
		MatMulN: 384, LRPoints: 20_000_000, LRBatch: 1000,
		SwaptionsN: 64, SwTrials: 100_000, SwBatch: 1000,
		DedupN: 200_000, DedupUniq: 50_000, Seed: 7,
		HeapBytes: 2 << 30,
	}
}

func appRuntimeFor(threads int, heapBytes int64) *core.Runtime {
	if heapBytes == 0 {
		heapBytes = 512 << 20
	}
	rt, err := core.NewRuntime(pmem.New(pmem.NVMMConfig(heapBytes)), core.Config{Threads: threads})
	if err != nil {
		panic(err)
	}
	return rt
}

// timeRespct builds an application on a fresh runtime of the given thread
// count — persistent-heap creation and input initialisation are setup, as
// the paper's pool-creation phase is outside its measured execution time —
// makes it durable, and times its run under a checkpointer.
func timeRespct(s AppScale, threads int, build func(rt *core.Runtime) (run func(), err error)) time.Duration {
	rt := appRuntimeFor(threads, s.HeapBytes)
	run, err := build(rt)
	if err != nil {
		panic(err)
	}
	rt.CheckpointIdle()
	t0 := time.Now()
	ck := rt.StartCheckpointer(s.Interval)
	run()
	ck.Stop()
	return time.Since(t0)
}

// Fig13 reproduces the compute-application comparison: execution time of the
// ResPCT-instrumented application normalized to the transient run.
func Fig13(s AppScale, log func(string)) string {
	dedupThreads := max(s.Threads, 3)
	rows := []struct {
		name      string
		threads   int
		transient func()
		build     func(rt *core.Runtime) (func(), error)
	}{
		{"MatMul", s.Threads, func() { apps.MatMulTransient(s.MatMulN, s.Threads, s.Seed) },
			func(rt *core.Runtime) (func(), error) {
				m, err := apps.NewMatMul(rt, 0, s.MatMulN, s.Seed)
				return func() { m.Run() }, err
			}},
		{"LR", s.Threads, func() { apps.LRTransient(s.LRPoints, s.Threads, s.Seed) },
			func(rt *core.Runtime) (func(), error) {
				l, err := apps.NewLR(rt, 0, s.LRPoints, s.LRBatch, s.Seed)
				return func() { l.Run() }, err
			}},
		{"Swaptions", s.Threads, func() { apps.SwaptionsTransient(s.SwaptionsN, s.SwTrials, s.Threads, s.Seed) },
			func(rt *core.Runtime) (func(), error) {
				sw, err := apps.NewSwaptions(rt, 0, s.SwaptionsN, s.SwTrials, s.SwBatch, s.Seed)
				return func() { sw.Run() }, err
			}},
		{"Dedup", dedupThreads, func() { apps.DedupTransient(s.DedupN, s.DedupUniq, dedupThreads, s.Seed) },
			func(rt *core.Runtime) (func(), error) {
				d, err := apps.NewDedup(rt, 0, s.DedupN, s.DedupUniq, s.DedupUniq, s.Seed)
				return func() { d.Run() }, err
			}},
	}

	var out strings.Builder
	out.WriteString(fmt.Sprintf("Figure 13 — compute applications, %d threads (time normalized to Transient<DRAM>)\n", s.Threads))
	out.WriteString(fmt.Sprintf("%-12s %14s %14s %12s\n", "app", "transient", "ResPCT", "normalized"))
	for _, a := range rows {
		if log != nil {
			log("fig13 " + a.name + " transient")
		}
		t0 := time.Now()
		a.transient()
		tTransient := time.Since(t0)
		runtime.GC()
		if log != nil {
			log("fig13 " + a.name + " respct")
		}
		tRespct := timeRespct(s, a.threads, a.build)
		runtime.GC()
		// The paper's Fig. 13 y-axis: ResPCT time over transient time.
		out.WriteString(fmt.Sprintf("%-12s %14v %14v %11.2fx\n", a.name, tTransient.Round(time.Millisecond),
			tRespct.Round(time.Millisecond), float64(tRespct)/float64(tTransient)))
	}
	return out.String()
}

// RPPlacementStudy reproduces the §5.3 "Positioning RPs" experiment: LR with
// per-point restart points versus batched ones.
func RPPlacementStudy(s AppScale, log func(string)) string {
	if log != nil {
		log("rp-study transient")
	}
	t0 := time.Now()
	apps.LRTransient(s.LRPoints, s.Threads, s.Seed)
	base := time.Since(t0)

	var out strings.Builder
	out.WriteString("§5.3 RP positioning — Linear Regression, time normalized to transient\n")
	out.WriteString(fmt.Sprintf("%-20s %14s %12s\n", "RP batch (points)", "time", "normalized"))
	out.WriteString(fmt.Sprintf("%-20s %14v %11.2fx\n", "transient", base.Round(time.Millisecond), 1.0))
	for _, batch := range []int{1, 10, 100, 1000} {
		if log != nil {
			log(fmt.Sprintf("rp-study batch=%d", batch))
		}
		d := timeRespct(s, s.Threads, func(rt *core.Runtime) (func(), error) {
			l, err := apps.NewLR(rt, 0, s.LRPoints, batch, s.Seed)
			return func() { l.Run() }, err
		})
		out.WriteString(fmt.Sprintf("%-20d %14v %11.2fx\n", batch, d.Round(time.Millisecond), float64(d)/float64(base)))
		runtime.GC()
	}
	return out.String()
}
