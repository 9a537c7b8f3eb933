package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// Scale shrinks or grows the paper's problem sizes. Scale 1 is the paper's
// configuration (1 M buckets, 2 M keys, 64 threads); CI-friendly runs use a
// smaller scale.
type Scale struct {
	Buckets      int
	KeySpace     uint64
	Prefill      int
	ThreadCounts []int
	Duration     time.Duration
	Interval     time.Duration
	QueuePrefill int
}

// PaperScale is the evaluation configuration of §5.1.
func PaperScale() Scale {
	return Scale{
		Buckets:      1_000_000,
		KeySpace:     2_000_000,
		Prefill:      1_000_000,
		ThreadCounts: []int{1, 4, 16, 64},
		Duration:     3 * time.Second,
		Interval:     64 * time.Millisecond,
		QueuePrefill: 1000,
	}
}

// QuickScale is a laptop/CI configuration preserving the workload shape.
// The key space stays large enough (hundreds of thousands of keys) that the
// persistent working set spans thousands of pages — the regime the paper
// evaluates, where page-granular systems pay their write amplification.
func QuickScale() Scale {
	return Scale{
		Buckets:      200_000,
		KeySpace:     400_000,
		Prefill:      200_000,
		ThreadCounts: []int{1, 4},
		Duration:     500 * time.Millisecond,
		Interval:     64 * time.Millisecond,
		QueuePrefill: 1000,
	}
}

func (s Scale) params(threads int) Params {
	return Params{
		Buckets:  s.Buckets,
		KeySpace: s.KeySpace,
		Prefill:  s.Prefill,
		Threads:  threads,
		Interval: s.Interval,
		Seed:     12345,
	}
}

// runMapSystem constructs, prefills, measures and tears down one system.
func runMapSystem(sys MapSystem, w MapWorkload, threads int, s Scale) Result {
	p := s.params(threads)
	m, closeFn := sys.New(p)
	if !Prefilled(m) {
		PrefillMap(m, w, p.Seed)
	}
	r := RunMap(sys.Name, m, threads, s.Duration, w, p.Seed+1)
	closeFn()
	m.Close()
	runtime.GC()
	return r
}

// runQueueSystem constructs, prefills, measures and tears down one system.
func runQueueSystem(sys QueueSystem, threads int, s Scale) Result {
	p := s.params(threads)
	q, closeFn := sys.New(p)
	PrefillQueue(q, s.QueuePrefill)
	r := RunQueue(sys.Name, q, threads, s.Duration, p.Seed+1)
	closeFn()
	q.Close()
	runtime.GC()
	return r
}

// Fig8 reproduces the HashMap comparison: three update/search mixes, all
// systems, a sweep over thread counts. Returns one table per workload and
// the raw results.
func Fig8(s Scale, systems []MapSystem, log func(string)) (string, []Result) {
	if systems == nil {
		systems = MapSystems()
	}
	var all []Result
	var out strings.Builder
	for _, w := range StandardWorkloads(s.KeySpace, s.Prefill) {
		var results []Result
		for _, sys := range systems {
			for _, tc := range s.ThreadCounts {
				if log != nil {
					log(fmt.Sprintf("fig8 %s %s threads=%d", w.Name, sys.Name, tc))
				}
				results = append(results, runMapSystem(sys, w, tc, s))
			}
		}
		all = append(all, results...)
		out.WriteString(Table(fmt.Sprintf("Figure 8 — HashMap, %s (Mops/s)", w.Name), results, s.ThreadCounts))
		out.WriteString("\n")
	}
	return out.String(), all
}

// Fig9 reproduces the Queue comparison: 1:1 enqueue/dequeue, all systems,
// thread sweep. Returns the table and the raw results.
func Fig9(s Scale, systems []QueueSystem, log func(string)) (string, []Result) {
	if systems == nil {
		systems = QueueSystems()
	}
	var results []Result
	for _, sys := range systems {
		for _, tc := range s.ThreadCounts {
			if log != nil {
				log(fmt.Sprintf("fig9 %s threads=%d", sys.Name, tc))
			}
			results = append(results, runQueueSystem(sys, tc, s))
		}
	}
	return Table("Figure 9 — Queue, enq:deq 1:1 (Mops/s)", results, s.ThreadCounts), results
}

// Fig10 reproduces the overhead decomposition at the largest thread count:
// Transient<DRAM>, Transient<NVMM>, ResPCT-InCLL, ResPCT-noFlush, ResPCT,
// for the queue and the read-/write-intensive map workloads, normalized to
// Transient<DRAM>.
func Fig10(s Scale, log func(string)) string {
	threads := s.ThreadCounts[len(s.ThreadCounts)-1]
	variants := []MapSystem{
		MapSystem0("Transient<DRAM>"),
		MapSystem0("Transient<NVMM>"),
		RespctMapVariants()[1], // ResPCT-InCLL
		RespctMapVariants()[2], // ResPCT-noFlush
		RespctMapVariants()[0], // ResPCT
	}
	var out strings.Builder
	for _, w := range []MapWorkload{
		{Name: "read-intensive (1:9)", UpdateFrac: 0.1, KeySpace: s.KeySpace, Prefill: s.Prefill},
		{Name: "write-intensive (9:1)", UpdateFrac: 0.9, KeySpace: s.KeySpace, Prefill: s.Prefill},
	} {
		var results []Result
		for _, sys := range variants {
			if log != nil {
				log(fmt.Sprintf("fig10 map %s %s", w.Name, sys.Name))
			}
			results = append(results, runMapSystem(sys, w, threads, s))
		}
		out.WriteString(NormalizedTable(
			fmt.Sprintf("Figure 10 — HashMap %s, %d threads (normalized to Transient<DRAM>)", w.Name, threads),
			"Transient<DRAM>", results))
		out.WriteString("\n")
	}

	// Queue decomposition.
	queueVariants := []QueueSystem{
		QueueSystem0("Transient<DRAM>"),
		QueueSystem0("Transient<NVMM>"),
		RespctQueueVariants()[1], // ResPCT-InCLL
		RespctQueueVariants()[2], // ResPCT-noFlush
		RespctQueueVariants()[0], // ResPCT
	}
	var qResults []Result
	for _, sys := range queueVariants {
		if log != nil {
			log("fig10 queue " + sys.Name)
		}
		qResults = append(qResults, runQueueSystem(sys, threads, s))
	}
	out.WriteString(NormalizedTable(
		fmt.Sprintf("Figure 10 — Queue, %d threads (normalized to Transient<DRAM>)", threads),
		"Transient<DRAM>", qResults))
	return out.String()
}

// Fig11 reproduces the checkpoint-period sweep: ResPCT on the
// write-intensive map workload with periods from 1 ms to 64 ms, reporting
// throughput, the measured effective period, the checkpoints taken and the
// longest pause. Each row's map is built like Fig. 8's ResPCT (respctMap), so
// the prefill is durable before the checkpointer starts and no row times its
// write-back.
func Fig11(s Scale, log func(string)) string {
	threads := s.ThreadCounts[len(s.ThreadCounts)-1]
	w := MapWorkload{Name: "write-intensive (9:1)", UpdateFrac: 0.9, KeySpace: s.KeySpace, Prefill: s.Prefill}
	var out strings.Builder
	out.WriteString(fmt.Sprintf("Figure 11 — ResPCT, HashMap %s, %d threads, period sweep\n", w.Name, threads))
	out.WriteString(fmt.Sprintf("%-12s %12s %18s %14s %12s\n", "period", "Mops/s", "effective period", "checkpoints", "max pause"))
	for _, period := range []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 16 * time.Millisecond, 32 * time.Millisecond, 64 * time.Millisecond,
	} {
		if log != nil {
			log(fmt.Sprintf("fig11 period=%v", period))
		}
		p := s.params(threads)
		m, rt := respctMap(p, core.Config{})
		before := rt.Stats().Checkpoints
		ck := rt.StartCheckpointer(period)
		r := RunMap("ResPCT", m, threads, s.Duration, w, p.Seed+1)
		ck.Stop()
		eff := ck.EffectivePeriod()
		out.WriteString(fmt.Sprintf("%-12v %12.3f %18v %14d %12v\n", period, r.Mops(), eff.Round(100*time.Microsecond),
			rt.Stats().Checkpoints-before, ck.MaxPause().Round(100*time.Microsecond)))
		runtime.GC()
	}
	return out.String()
}

// Fig12 reproduces recovery timing: build a map with ~2 elements per
// bucket, run briefly, crash, and time the parallel recovery (the paper
// uses 32 recovery threads).
func Fig12(s Scale, bucketsSweep []int, log func(string)) string {
	if bucketsSweep == nil {
		bucketsSweep = []int{s.Buckets / 8, s.Buckets / 4, s.Buckets / 2, s.Buckets}
	}
	var out strings.Builder
	out.WriteString("Figure 12 — Recovery time vs HashMap size (32 recovery threads)\n")
	out.WriteString(fmt.Sprintf("%-12s %12s %14s %14s %14s\n", "buckets", "keys", "recovery", "blocks", "cells"))
	for _, buckets := range bucketsSweep {
		if log != nil {
			log(fmt.Sprintf("fig12 buckets=%d", buckets))
		}
		keys := uint64(buckets * 2)
		p := Params{Buckets: buckets, KeySpace: keys, Prefill: int(keys), Threads: 1, Interval: s.Interval, Seed: 3}
		h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
		rt, err := core.NewRuntime(h, core.Config{Threads: 1})
		if err != nil {
			panic(err)
		}
		m, err := structures.NewRespctMap(rt, 0, buckets)
		if err != nil {
			panic(err)
		}
		w := MapWorkload{UpdateFrac: 0.9, KeySpace: keys, Prefill: int(keys)}
		PrefillMap(m, w, p.Seed)
		rt.CheckpointIdle()
		// A burst of doomed-epoch work so recovery has rollbacks to do.
		RunMap("setup", m, 1, 50*time.Millisecond, w, p.Seed+1)
		h.EvictDirtyFraction(0.5, 7)
		h.Crash()
		start := time.Now()
		_, rep, err := core.Recover(h, core.Config{Threads: 1}, 32)
		if err != nil {
			panic(err)
		}
		total := time.Since(start)
		out.WriteString(fmt.Sprintf("%-12d %12d %14v %14d %14d\n",
			buckets, keys, total.Round(10*time.Microsecond), rep.BlocksScanned, rep.CellsScanned))
		runtime.GC()
	}
	return out.String()
}
