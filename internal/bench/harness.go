// Package bench drives the paper's evaluation (§5): fixed-duration
// throughput runs of every system over the Queue and HashMap
// micro-benchmarks, the overhead decomposition, the checkpoint-period sweep,
// recovery timing, and table rendering. Figures lists every experiment by
// name; the cmd/respct-bench binary runs one (or all) of them.
package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/respct/respct/internal/structures"
)

// MapWorkload is an update/search mix for the hash-map benchmark. Updates
// split evenly between inserts and deletes, as in the paper.
type MapWorkload struct {
	Name       string
	UpdateFrac float64 // 0..1; rest are searches
	KeySpace   uint64  // keys drawn uniformly from [1, KeySpace]
	Prefill    int     // pairs inserted before timing
}

// Result is one measured configuration.
type Result struct {
	System   string
	Workload string
	Threads  int
	Ops      uint64
	Duration time.Duration
}

// Mops returns throughput in million operations per second.
func (r Result) Mops() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds() / 1e6
}

// RunMap drives m with `threads` workers for about `duration`, applying the
// workload mix, and returns the measured result. Each worker uses its own
// deterministic RNG; op counts are exact.
func RunMap(name string, m structures.Map, threads int, duration time.Duration, w MapWorkload, seed int64) Result {
	var stop atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(th)*7919))
			local := uint64(0)
			ins := true
			for !stop.Load() {
				k := uint64(rng.Int63n(int64(w.KeySpace))) + 1
				if rng.Float64() < w.UpdateFrac {
					if ins {
						m.Insert(th, k, k)
					} else {
						m.Remove(th, k)
					}
					ins = !ins
				} else {
					m.Get(th, k)
				}
				m.PerOp(th)
				local++
			}
			ops.Add(local)
			m.ThreadExit(th)
		}(th)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	return Result{System: name, Workload: w.Name, Threads: threads, Ops: ops.Load(), Duration: time.Since(start)}
}

// PrefillMap inserts w.Prefill distinct keys drawn from the key space using
// worker 0 (quiescent setup, not timed).
func PrefillMap(m structures.Map, w MapWorkload, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	inserted := 0
	for inserted < w.Prefill {
		k := uint64(rng.Int63n(int64(w.KeySpace))) + 1
		if m.Insert(0, k, k) {
			inserted++
		}
	}
}

// RunQueue drives q with a 1:1 enqueue/dequeue mix (the paper's queue
// workload) for about `duration`.
func RunQueue(name string, q structures.Queue, threads int, duration time.Duration, seed int64) Result {
	var stop atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(th)*104729))
			local := uint64(0)
			for !stop.Load() {
				if rng.Intn(2) == 0 {
					q.Enqueue(th, local+1)
				} else {
					q.Dequeue(th)
				}
				q.PerOp(th)
				local++
			}
			ops.Add(local)
			q.ThreadExit(th)
		}(th)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	return Result{System: name, Workload: "enq:deq 1:1", Threads: threads, Ops: ops.Load(), Duration: time.Since(start)}
}

// PrefillQueue enqueues n elements (the paper pre-fills 1 k).
func PrefillQueue(q structures.Queue, n int) {
	for i := 0; i < n; i++ {
		q.Enqueue(0, uint64(i)+1)
	}
}

// Standard workloads of Fig. 8 (update:search 1:9, 1:1, 9:1).
func StandardWorkloads(keySpace uint64, prefill int) []MapWorkload {
	return []MapWorkload{
		{Name: "read-intensive (1:9)", UpdateFrac: 0.1, KeySpace: keySpace, Prefill: prefill},
		{Name: "balanced (1:1)", UpdateFrac: 0.5, KeySpace: keySpace, Prefill: prefill},
		{Name: "write-intensive (9:1)", UpdateFrac: 0.9, KeySpace: keySpace, Prefill: prefill},
	}
}

// Table renders results as an aligned throughput table: one row per system,
// one column per thread count.
func Table(title string, results []Result, threadCounts []int) string {
	bySystem := map[string]map[int]Result{}
	var order []string
	for _, r := range results {
		if _, ok := bySystem[r.System]; !ok {
			bySystem[r.System] = map[int]Result{}
			order = append(order, r.System)
		}
		bySystem[r.System][r.Threads] = r
	}
	out := fmt.Sprintf("%s\n%-24s", title, "system \\ threads")
	for _, tc := range threadCounts {
		out += fmt.Sprintf("%10d", tc)
	}
	out += "\n"
	for _, sys := range order {
		out += fmt.Sprintf("%-24s", sys)
		for _, tc := range threadCounts {
			if r, ok := bySystem[sys][tc]; ok {
				out += fmt.Sprintf("%10.3f", r.Mops())
			} else {
				out += fmt.Sprintf("%10s", "-")
			}
		}
		out += "\n"
	}
	return out
}

// NormalizedTable renders results normalized to the named baseline system
// (throughput ratios, the paper's Fig. 10/13 style).
func NormalizedTable(title, baseline string, results []Result) string {
	var base float64
	for _, r := range results {
		if r.System == baseline {
			base = r.Mops()
		}
	}
	out := title + "\n"
	for _, r := range results {
		norm := 0.0
		if base > 0 {
			norm = r.Mops() / base
		}
		out += fmt.Sprintf("%-28s %10.3f Mops/s   %6.3fx vs %s\n", r.System, r.Mops(), norm, baseline)
	}
	return out
}
