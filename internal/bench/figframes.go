package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/frame"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
)

// FrameResult is one row of the figFrames sweep. Duration fields marshal as
// nanoseconds in the JSON report.
type FrameResult struct {
	HeapBytes  int64   `json:"heap_bytes"`
	Records    int     `json:"records"`
	ChurnFrac  float64 `json:"churn_frac"`
	ChurnedKey int     `json:"churned_keys"`

	FullNs     time.Duration `json:"full_snapshot_ns"`
	FullBytes  int64         `json:"full_bytes"`
	FullFrames int           `json:"full_frames"`

	DeltaNs     time.Duration `json:"delta_snapshot_ns"`
	DeltaBytes  int64         `json:"delta_bytes"`
	DeltaFrames int           `json:"delta_frames"`
	DeltaLines  int           `json:"delta_lines"`

	RestoreNs time.Duration `json:"restore_ns"`
	RecoverNs time.Duration `json:"recover_ns"`
}

// FigFrames sweeps the frame snapshot engine over heap size and churn rate.
// Each row builds a ResPCT KV store on a heap of the given size, fills it to
// a fixed density, and then measures the four frame-store operations that
// matter for checkpoint-to-NVMM deployments: the initial full set, an
// incremental delta after rewriting a fraction of the keys, the chain
// restore into a fresh heap, and ordinary recovery on the restored heap.
//
// The point the sweep makes is the delta columns: full-set bytes and time
// grow with the heap, delta bytes and time grow with the churn — a lightly
// churned big heap snapshots in the time of a small one.
func FigFrames(s KVScale, heaps []int64, churns []float64, log func(string)) string {
	out, _ := FigFramesR(s, heaps, churns, log)
	return out
}

// FigFramesR is FigFrames returning the raw per-row results as well.
func FigFramesR(s KVScale, heaps []int64, churns []float64, log func(string)) (string, []FrameResult) {
	if heaps == nil {
		// Scale-relative defaults: 8 MiB and 32 MiB at quick scale.
		heaps = []int64{s.HeapBytes / 32, s.HeapBytes / 8}
	}
	if churns == nil {
		churns = []float64{0.01, 0.10}
	}
	params := frame.Params{Workers: s.Workers, Compression: frame.CompressFlate}
	var out strings.Builder
	out.WriteString(fmt.Sprintf("figFrames — frame snapshot chain, %d-byte values, %d snapshot workers, %s compression\n",
		s.ValueSize, s.Workers, frame.CompressFlate))
	out.WriteString(fmt.Sprintf("%-10s %8s %7s %10s %10s %10s %10s %8s %10s %10s\n",
		"heap", "records", "churn", "full", "full MB", "delta", "delta KB", "lines", "restore", "recover"))
	var results []FrameResult
	for _, heapBytes := range heaps {
		for _, churn := range churns {
			if log != nil {
				log(fmt.Sprintf("figframes heap=%dMiB churn=%.0f%%", heapBytes>>20, churn*100))
			}
			r := figFramesRow(s, heapBytes, churn, params)
			results = append(results, r)
			out.WriteString(fmt.Sprintf("%-10s %8d %6.0f%% %10v %10.2f %10v %10.1f %8d %10v %10v\n",
				fmt.Sprintf("%dMiB", r.HeapBytes>>20), r.Records, r.ChurnFrac*100,
				r.FullNs.Round(10*time.Microsecond), float64(r.FullBytes)/(1<<20),
				r.DeltaNs.Round(10*time.Microsecond), float64(r.DeltaBytes)/(1<<10),
				r.DeltaLines,
				r.RestoreNs.Round(10*time.Microsecond), r.RecoverNs.Round(10*time.Microsecond)))
			runtime.GC()
		}
	}
	return out.String(), results
}

func figFramesRow(s KVScale, heapBytes int64, churn float64, params frame.Params) FrameResult {
	// The record count is fixed across heap sizes: full-set cost then grows
	// with the heap (every frame is read and encoded) while delta cost tracks
	// the churned keys alone — the separation the sweep exists to show.
	records := s.Records
	if records < 1024 {
		records = 1024
	}
	buckets := records / 4
	if buckets < 256 {
		buckets = 256
	}
	h := pmem.New(pmem.NVMMConfig(heapBytes))
	rt, err := core.NewRuntime(h, core.Config{Threads: 1})
	if err != nil {
		panic(err)
	}
	st, err := kv.NewRespctStore(rt, 0, buckets)
	if err != nil {
		panic(err)
	}
	val := make([]byte, s.ValueSize)
	for i := range val {
		val[i] = byte(i)
	}
	checkpoint := func() {
		t := rt.Thread(0)
		t.CheckpointAllow()
		rt.Checkpoint()
		t.CheckpointPrevent(nil)
	}
	for i := 0; i < records; i++ {
		st.Set(0, fmt.Sprintf("key-%08d", i), val)
		st.PerOp(0)
	}
	checkpoint()

	store, err := frame.NewStore(frame.NewMemFS(), params, nil)
	if err != nil {
		panic(err)
	}
	r := FrameResult{HeapBytes: heapBytes, Records: records, ChurnFrac: churn}

	start := time.Now()
	full, err := store.Snapshot(h, rt.DurableEpoch(), nil)
	if err != nil {
		panic(err)
	}
	r.FullNs = time.Since(start)
	r.FullBytes = full.Info.Bytes
	r.FullFrames = full.Info.Frames

	// Rewrite the churn fraction of the keys (spread across the key space)
	// and make the rewrite durable; the next snapshot must carry only the
	// lines those rewrites dirtied.
	r.ChurnedKey = int(float64(records) * churn)
	stride := 1
	if r.ChurnedKey > 0 {
		stride = records / r.ChurnedKey
	}
	for i := 0; i < r.ChurnedKey; i++ {
		st.Set(0, fmt.Sprintf("key-%08d", i*stride), val)
		st.PerOp(0)
	}
	checkpoint()

	start = time.Now()
	delta, err := store.Snapshot(h, rt.DurableEpoch(), nil)
	if err != nil {
		panic(err)
	}
	r.DeltaNs = time.Since(start)
	if delta.Info.Kind != frame.KindDelta {
		panic(fmt.Sprintf("bench: second snapshot is %s, want delta", delta.Info.Kind))
	}
	r.DeltaBytes = delta.Info.Bytes
	r.DeltaFrames = delta.Info.Frames
	r.DeltaLines = delta.Info.Lines

	start = time.Now()
	sink := &frame.HeapSink{Config: pmem.NVMMConfig(0)}
	if _, err := store.Restore(sink, params.Workers); err != nil {
		panic(err)
	}
	h2, err := sink.Heap()
	if err != nil {
		panic(err)
	}
	r.RestoreNs = time.Since(start)

	start = time.Now()
	rt2, _, err := core.Recover(h2, core.Config{Threads: 1}, params.Workers)
	if err != nil {
		panic(err)
	}
	if _, err := kv.OpenRespctStore(rt2, 0); err != nil {
		panic(err)
	}
	r.RecoverNs = time.Since(start)
	return r
}
