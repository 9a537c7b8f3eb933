package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/ycsb"
)

// StoreOpResult is one row of the figStores micro-benchmark: the per-store
// cost of the tracked hot path (update_InCLL + modified-line registration)
// for one checkpoint mode × key distribution cell, plus the flush-phase bill
// those stores set up. Duration-derived fields are plain floats (ns and µs)
// rather than time.Duration so the JSON stays unit-explicit.
type StoreOpResult struct {
	Mode         string  `json:"mode"` // "sync" or "async"
	Dist         string  `json:"dist"` // "zipfian" or "uniform"
	StoreNsOp    float64 `json:"store_ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	FlushUsCkpt  float64 `json:"flush_us_per_ckpt"`
	Checkpoints  uint64  `json:"checkpoints"`
	LinesPerCkpt float64 `json:"lines_per_ckpt"`
}

// FigStores measures the tracked-store fast path in isolation: a single
// worker hammering StoreTracked over a raw region, sync vs async checkpoint
// mode crossed with zipfian vs uniform key choice. The zipfian rows are the
// write-combining showcase (most stores re-hit a recently registered line
// and must dodge both the append and the atomic pending-bit RMW); the
// uniform rows bound the cache-miss cost of the same machinery. Store cost
// is the best of storePhases timed phases; allocations come from MemStats
// deltas around the timed loop (the acceptance gate wants a hard zero).
// Returns the table and the raw per-row results.
func FigStores(s KVScale, log func(string)) (string, []StoreOpResult) {
	var out strings.Builder
	out.WriteString(fmt.Sprintf("figStores — tracked-store micro-benchmark, %d slots, %d stores/phase, best of %d phases, %d flush ckpts\n",
		s.Records, storeOpsPerPhase(s), storePhases, storeFlushCkpts))
	out.WriteString(fmt.Sprintf("%-8s %-10s %12s %12s %14s %12s %12s\n",
		"mode", "dist", "ns/op", "allocs/op", "flush µs/ckpt", "ckpts", "lines/ckpt"))
	var results []StoreOpResult
	for _, async := range []bool{false, true} {
		for _, zipfian := range []bool{true, false} {
			if log != nil {
				log(fmt.Sprintf("figstores mode=%s dist=%s", storeModeName(async), storeDistName(zipfian)))
			}
			r := runStoreRow(s, async, zipfian)
			results = append(results, r)
			out.WriteString(fmt.Sprintf("%-8s %-10s %12.1f %12.2f %14.1f %12d %12.1f\n",
				r.Mode, r.Dist, r.StoreNsOp, r.AllocsPerOp, r.FlushUsCkpt, r.Checkpoints, r.LinesPerCkpt))
			runtime.GC()
		}
	}
	return out.String(), results
}

const (
	storePhases     = 7  // minimum timed store phases; the row reports the fastest
	storeSettled    = 3  // extra phases the minimum must survive unbeaten
	storeMaxPhases  = 15 // hard cap on timed phases per row
	storePhaseReps  = 8  // replays of the pick sequence inside one timed phase
	storeFlushCkpts = 5  // dirty+checkpoint rounds averaged into flush µs/ckpt
)

func storeModeName(async bool) string {
	if async {
		return "async"
	}
	return "sync"
}

func storeDistName(zipfian bool) string {
	if zipfian {
		return "zipfian"
	}
	return "uniform"
}

// storeOpsPerPhase sizes one timed phase. A phase must dirty enough distinct
// lines that the flush measurement is not dominated by the checkpoint's fixed
// cost, but stay small enough that quick scale finishes in CI time.
func storeOpsPerPhase(s KVScale) int {
	ops := s.Operations
	if ops < 20_000 {
		ops = 20_000
	}
	return ops
}

func runStoreRow(s KVScale, async, zipfian bool) StoreOpResult {
	h := pmem.New(pmem.Config{Size: s.HeapBytes})
	rt, err := core.NewRuntime(h, core.Config{Threads: 1, AsyncFlush: async})
	if err != nil {
		panic(err)
	}
	th := rt.Thread(0)
	slots := s.Records
	base := rt.Arena().AllocRaw(th, slots)
	ops := storeOpsPerPhase(s)

	// Pre-draw the key sequence so the timed loop measures the store, not
	// the chooser. One shared sequence per row keeps phases comparable.
	picks := make([]pmem.Addr, ops)
	if zipfian {
		z := ycsb.NewZipf(uint64(slots), 42)
		for i := range picks {
			picks[i] = base + pmem.Addr(z.Next()*8)
		}
	} else {
		rng := rand.New(rand.NewSource(42))
		for i := range picks {
			picks[i] = base + pmem.Addr(rng.Intn(slots)*8)
		}
	}

	checkpoint := func() {
		th.CheckpointAllow()
		rt.Checkpoint()
		th.CheckpointPrevent(nil)
		if async {
			rt.WaitDrain()
		}
	}

	phase := func(v uint64) {
		for _, a := range picks {
			th.StoreTracked(a, v)
		}
	}
	// A single pass over the picks is only a few hundred µs of work — too
	// short for a stable reading on a shared host. One timed phase replays
	// the sequence storePhaseReps times; past the first pass every store is
	// a line-cache re-hit, which is exactly the steady state under test.
	timedOps := ops * storePhaseReps
	timedPhase := func(v uint64) {
		for r := 0; r < storePhaseReps; r++ {
			phase(v + uint64(r))
		}
	}

	// Warm up: touch every pick once so the arena carve, the toFlush grow
	// and the line-cache fill are off the books, then checkpoint to reset
	// tracking to the steady state every timed phase starts from.
	phase(1)
	checkpoint()

	// Mallocs is process-global, so a phase can pick up stray allocations
	// from runtime background work; time and allocs take independent minima
	// — each is the cleanest observation of its own steady-state claim.
	// The phase loop is adaptive: on a host where another tenant can steal
	// the CPU for longer than a phase, a fixed phase count can have every
	// observation polluted, so after the minimum count the loop keeps going
	// until the best time survives storeSettled phases unbeaten (capped).
	var ms runtime.MemStats
	best := time.Duration(1<<63 - 1)
	bestAllocs := float64(1 << 62)
	sinceBest := 0
	for p := 0; p < storeMaxPhases && (p < storePhases || sinceBest < storeSettled); p++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		timedPhase(uint64(8 * (p + 1)))
		el := time.Since(t0)
		runtime.ReadMemStats(&ms)
		if el < best {
			best = el
			sinceBest = 0
		} else {
			sinceBest++
		}
		if a := float64(ms.Mallocs-m0) / float64(timedOps); a < bestAllocs {
			bestAllocs = a
		}
		checkpoint()
	}

	// Flush phase: replay the stores to dirty the same working set, then
	// time the checkpoint they feed. Async rows include WaitDrain — the
	// figure is the full write-back bill per checkpoint, not the cut.
	s0 := rt.Stats()
	var flushTotal time.Duration
	for c := 0; c < storeFlushCkpts; c++ {
		phase(uint64(c + 100))
		t0 := time.Now()
		checkpoint()
		flushTotal += time.Since(t0)
	}
	st := rt.Stats()
	ckpts := st.Checkpoints - s0.Checkpoints
	var linesPer float64
	if ckpts > 0 {
		linesPer = float64(st.LinesWrote-s0.LinesWrote) / float64(ckpts)
	}

	return StoreOpResult{
		Mode:         storeModeName(async),
		Dist:         storeDistName(zipfian),
		StoreNsOp:    float64(best.Nanoseconds()) / float64(timedOps),
		AllocsPerOp:  bestAllocs,
		FlushUsCkpt:  float64(flushTotal.Microseconds()) / float64(storeFlushCkpts),
		Checkpoints:  ckpts,
		LinesPerCkpt: linesPer,
	}
}

// storeQuantities is figstores' gate: store ns/op per mode/dist row, lower
// is better. It is an absolute time, so it only holds against a baseline
// recorded on a host of the same speed; the flush figure is not gated, being
// dominated by the simulator's calibrated NVM penalties.
func storeQuantities(rows []StoreOpResult) map[string]float64 {
	q := make(map[string]float64, len(rows))
	for _, r := range rows {
		q[r.Mode+"/"+r.Dist] = r.StoreNsOp
	}
	return q
}
