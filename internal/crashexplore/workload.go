package crashexplore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/shard"
	"github.com/respct/respct/internal/structures"
	"github.com/respct/respct/internal/wire"
)

// State is the canonical logical state of one heap: a flat string→string
// map. Structure-specific snapshots (RespctMap's uint64 pairs, RespctStore's
// key/value strings) are converted to it so one checker serves every
// workload.
type State map[string]string

// Certified maps a checkpoint's ending epoch to the logical state the
// workload certified at that boundary, captured inside the quiesced hook
// while every worker was parked and before any line was flushed — the state
// the paper's BDL contract obliges recovery to reproduce if the next
// checkpoint does not complete.
type Certified map[uint64]State

// Recovered is one heap's post-recovery observation: the failed epoch the
// recovery pass read from the persistent image and the logical state it
// reconstructed.
type Recovered struct {
	FailedEpoch uint64
	State       State
}

// Workload is a named, deterministic crash-test program. Setup must build
// fresh heaps, make their initial state durable, install certification
// hooks, and only then attach the heaps to rec — the trace (and therefore
// the crash-point space) deliberately starts after setup, so mid-format
// crashes are out of scope (see docs/FAILURE-MODEL.md).
type Workload interface {
	// Name is the registry key; it fully determines the workload's
	// configuration, which is what makes a repro file self-contained.
	Name() string

	// Setup builds the workload and attaches its heaps to rec in a fixed
	// order (heap index i in the trace == element i of Run.Recover's
	// result and the argument to Run.Certified). sanitize attaches the
	// runtime persistency sanitizer (collect mode) to every runtime the
	// workload builds.
	Setup(rec *pmem.Recorder, sanitize bool) (Run, error)
}

// Run is one instantiation of a workload.
type Run interface {
	// Execute drives the workload to completion from a single goroutine.
	// It must terminate even if the heaps crash mid-run (post-crash
	// volatile execution is harmless: write-backs become no-ops).
	Execute() error

	// Certified returns heap i's certified checkpoint snapshots.
	Certified(heap int) Certified

	// Recover recovers every heap (in attach order) and returns what came
	// back. It must use recovery parallelism 1 so replays stay
	// deterministic.
	Recover() ([]Recovered, error)

	// SanFindings reports the persistency sanitizer's findings across the
	// run's runtimes; nil when the run was not sanitized or stayed clean.
	SanFindings() []string
}

// builders is the workload registry. Every entry is deterministic: same
// name → same trace, byte for byte.
var builders = map[string]func() Workload{
	"map-tiny": func() Workload {
		return &mapWorkload{name: "map-tiny", batches: 2, opsPerBatch: 3, keySpace: 4}
	},
	"map-sync": func() Workload {
		return &mapWorkload{name: "map-sync", batches: 4, opsPerBatch: 12, keySpace: 16}
	},
	"map-async": func() Workload {
		return &mapWorkload{name: "map-async", async: true, collideOps: 4,
			batches: 3, opsPerBatch: 10, keySpace: 12}
	},
	"map-sync-badcommit": func() Workload {
		return &mapWorkload{name: "map-sync-badcommit", badCommit: true,
			batches: 2, opsPerBatch: 6, keySpace: 8}
	},
	"kv-sync": func() Workload {
		return &kvWorkload{name: "kv-sync", batches: 3, opsPerBatch: 10, keySpace: 12}
	},
	"kv-async": func() Workload {
		return &kvWorkload{name: "kv-async", async: true, collideOps: 3,
			batches: 3, opsPerBatch: 8, keySpace: 10}
	},
	"shard-2-staggered": func() Workload {
		return &shardWorkload{name: "shard-2-staggered", batches: 4, opsPerBatch: 8, keySpace: 16}
	},
	"kv-frames": func() Workload {
		return &kvFramesWorkload{name: "kv-frames", batches: 4, opsPerBatch: 8, keySpace: 10,
			crashBudget: 100}
	},
	"kv-batch-sync": func() Workload {
		return &kvBatchWorkload{name: "kv-batch-sync", frames: 3, opsPerFrame: 8, keySpace: 10}
	},
	"kv-batch-async": func() Workload {
		return &kvBatchWorkload{name: "kv-batch-async", async: true, collide: true,
			frames: 3, opsPerFrame: 6, keySpace: 8}
	},
	"kv-scan": func() Workload {
		return &kvStructWorkload{name: "kv-scan", family: "scan", batches: 3, opsPerBatch: 8, keySpace: 10}
	},
	"kv-ttl": func() Workload {
		return &kvStructWorkload{name: "kv-ttl", family: "ttl", batches: 3, opsPerBatch: 8, keySpace: 8}
	},
	"kv-queue": func() Workload {
		return &kvStructWorkload{name: "kv-queue", family: "queue", batches: 3, opsPerBatch: 6, keySpace: 8}
	},
	"kv-log": func() Workload {
		return &kvStructWorkload{name: "kv-log", family: "log", batches: 3, opsPerBatch: 6, keySpace: 8}
	},
	"kv-multi": func() Workload {
		return &kvStructWorkload{name: "kv-multi", family: "multi", batches: 3, opsPerBatch: 6, keySpace: 8}
	},
}

// Lookup returns the registered workload for name.
func Lookup(name string) (Workload, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("crashexplore: unknown workload %q (have %v)", name, Names())
	}
	return b(), nil
}

// Names lists the registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// workloadHeapBytes sizes every explorer heap. Small keeps per-crash-point
// cost down (each point re-formats the heap and hashes the whole persistent
// image) but must still fit a 2 MiB structure segment plus node blocks.
const workloadHeapBytes = 8 << 20

// explorerCoreConfig is the deterministic runtime shape every single-heap
// workload uses: one worker, serial flushing, no penalties. sanitize
// attaches the persistency sanitizer in collect mode.
func explorerCoreConfig(async, sanitize bool) core.Config {
	return core.Config{Threads: 1, AsyncFlush: async, SerialFlush: true, Sanitize: sanitize}
}

func explorerHeap() *pmem.Heap {
	return pmem.New(pmem.Config{Size: workloadHeapBytes, Chaos: true, Seed: 1})
}

// mapState canonicalizes a RespctMap snapshot.
func mapState(m map[uint64]uint64) State {
	s := make(State, len(m))
	for k, v := range m {
		s[strconv.FormatUint(k, 10)] = strconv.FormatUint(v, 10)
	}
	return s
}

// mapWorkload drives a structures.RespctMap with a deterministic op stream,
// checkpointing inline between batches. The async variant parks the
// background drain on a gate and performs colliding updates inside the
// drain window, so collision-log appends and collision flushes appear in
// the trace at deterministic positions.
type mapWorkload struct {
	name        string
	async       bool
	badCommit   bool // arm core.SetCommitBeforeFlushFault during Execute
	batches     int
	opsPerBatch int
	keySpace    int64
	collideOps  int // async only: ops issued while the drain is parked
}

func (w *mapWorkload) Name() string { return w.name }

func (w *mapWorkload) Setup(rec *pmem.Recorder, sanitize bool) (Run, error) {
	h := explorerHeap()
	rt, err := core.NewRuntime(h, explorerCoreConfig(w.async, sanitize))
	if err != nil {
		return nil, err
	}
	m, err := structures.NewRespctMap(rt, 0, 64)
	if err != nil {
		return nil, err
	}
	r := &mapRun{w: w, h: h, rt: rt, m: m, certified: Certified{}}
	rt.SetQuiescedHook(func(ending uint64) {
		r.certified[ending] = mapState(m.Snapshot())
	})
	initialCheckpoint(rt, w.async)
	rec.Attach(h)
	return r, nil
}

type mapRun struct {
	w         *mapWorkload
	h         *pmem.Heap
	rt        *core.Runtime
	m         *structures.RespctMap
	certified Certified
}

func (r *mapRun) Execute() error {
	w := r.w
	rt, m := r.rt, r.m
	t := rt.Thread(0)
	if w.badCommit {
		rt.SetCommitBeforeFlushFault(true)
		defer rt.SetCommitBeforeFlushFault(false)
	}
	rng := rand.New(rand.NewSource(42))
	var gate chan struct{}
	if w.async && w.collideOps > 0 {
		// Park the drain before it flushes anything: the worker's
		// colliding updates then land at fixed trace positions, after the
		// cut and before any drain write-back.
		rt.SetDrainHook(func(_ uint64, preCommit bool) {
			if !preCommit {
				<-gate
			}
		})
	}
	for b := 0; b < w.batches; b++ {
		for i := 0; i < w.opsPerBatch; i++ {
			k := uint64(rng.Int63n(w.keySpace)) + 1
			if rng.Intn(4) == 3 {
				m.Remove(0, k)
			} else {
				m.Insert(0, k, k*1000+uint64(b))
			}
			m.PerOp(0)
		}
		gate = make(chan struct{})
		t.CheckpointAllow()
		rt.Checkpoint()
		t.CheckpointPrevent(nil)
		if w.async {
			for i := 0; i < w.collideOps; i++ {
				// First updates of the new epoch on keys touched by the
				// draining one: these hit collideCell, flush the line
				// early and append to the collision log — all on this
				// goroutine, deterministically, while the drain is parked.
				k := uint64(rng.Int63n(w.keySpace)) + 1
				m.Insert(0, k, k*7+uint64(b))
				m.PerOp(0)
			}
			if w.collideOps > 0 {
				close(gate)
			}
			rt.WaitDrain()
		}
	}
	return nil
}

func (r *mapRun) Certified(int) Certified { return r.certified }

func (r *mapRun) SanFindings() []string { return r.rt.SanFindings() }

func (r *mapRun) Recover() ([]Recovered, error) {
	rt2, rep, err := core.Recover(r.h, explorerCoreConfig(r.w.async, false), 1)
	if err != nil {
		return nil, err
	}
	m2, err := structures.OpenRespctMap(rt2, 0)
	if err != nil {
		return nil, err
	}
	return []Recovered{{FailedEpoch: rep.FailedEpoch, State: mapState(m2.Snapshot())}}, nil
}

// kvWorkload is mapWorkload's shape over kv.RespctStore: variable-length
// keys and values, record allocation and free-list churn on delete.
type kvWorkload struct {
	name        string
	async       bool
	batches     int
	opsPerBatch int
	keySpace    int
	collideOps  int
}

func (w *kvWorkload) Name() string { return w.name }

func (w *kvWorkload) Setup(rec *pmem.Recorder, sanitize bool) (Run, error) {
	h := explorerHeap()
	rt, err := core.NewRuntime(h, explorerCoreConfig(w.async, sanitize))
	if err != nil {
		return nil, err
	}
	st, err := kv.NewRespctStore(rt, 0, 128)
	if err != nil {
		return nil, err
	}
	r := &kvRun{w: w, h: h, rt: rt, st: st, certified: Certified{}}
	rt.SetQuiescedHook(func(ending uint64) {
		r.certified[ending] = State(st.SnapshotLogical())
	})
	initialCheckpoint(rt, w.async)
	rec.Attach(h)
	return r, nil
}

type kvRun struct {
	w         *kvWorkload
	h         *pmem.Heap
	rt        *core.Runtime
	st        *kv.RespctStore
	certified Certified
}

func (r *kvRun) Execute() error {
	w := r.w
	rt, st := r.rt, r.st
	t := rt.Thread(0)
	rng := rand.New(rand.NewSource(7))
	var gate chan struct{}
	if w.async && w.collideOps > 0 {
		rt.SetDrainHook(func(_ uint64, preCommit bool) {
			if !preCommit {
				<-gate
			}
		})
	}
	for b := 0; b < w.batches; b++ {
		for i := 0; i < w.opsPerBatch; i++ {
			key := fmt.Sprintf("key-%02d", rng.Intn(w.keySpace))
			if rng.Intn(4) == 3 {
				st.Delete(0, key)
			} else {
				st.Set(0, key, []byte(fmt.Sprintf("v%d-%d", b, i)))
			}
			st.PerOp(0)
		}
		gate = make(chan struct{})
		t.CheckpointAllow()
		rt.Checkpoint()
		t.CheckpointPrevent(nil)
		if w.async {
			for i := 0; i < w.collideOps; i++ {
				key := fmt.Sprintf("key-%02d", rng.Intn(w.keySpace))
				st.Set(0, key, []byte(fmt.Sprintf("c%d-%d", b, i)))
				st.PerOp(0)
			}
			if w.collideOps > 0 {
				close(gate)
			}
			rt.WaitDrain()
		}
	}
	return nil
}

func (r *kvRun) Certified(int) Certified { return r.certified }

func (r *kvRun) SanFindings() []string { return r.rt.SanFindings() }

func (r *kvRun) Recover() ([]Recovered, error) {
	rt2, rep, err := core.Recover(r.h, explorerCoreConfig(r.w.async, false), 1)
	if err != nil {
		return nil, err
	}
	st2, err := kv.OpenRespctStore(rt2, 0)
	if err != nil {
		return nil, err
	}
	return []Recovered{{FailedEpoch: rep.FailedEpoch, State: State(st2.SnapshotLogical())}}, nil
}

// shardWorkload drives a 2-shard pool through its routing Store with
// staggered inline checkpoints: shard b%2 checkpoints after batch b, so the
// two heaps' epochs deliberately diverge — the per-shard recovery contract
// (each shard independently lands on its own last completed checkpoint) is
// what the checker exercises.
type shardWorkload struct {
	name        string
	batches     int
	opsPerBatch int
	keySpace    int
}

func (w *shardWorkload) Name() string { return w.name }

func (w *shardWorkload) shardConfig(sanitize bool) shard.Config {
	return shard.Config{
		Shards:              2,
		Workers:             1,
		Buckets:             128,
		HeapBytes:           workloadHeapBytes,
		Chaos:               true,
		Seed:                1,
		SerialFlush:         true,
		Sanitize:            sanitize,
		RecoveryParallelism: 1,
	}
}

func (w *shardWorkload) Setup(rec *pmem.Recorder, sanitize bool) (Run, error) {
	pool, err := shard.NewPool(w.shardConfig(sanitize))
	if err != nil {
		return nil, err
	}
	r := &shardRun{w: w, pool: pool,
		certified: []Certified{{}, {}}}
	for i := 0; i < pool.NumShards(); i++ {
		i := i
		sh := pool.Shard(i)
		sh.RT.SetQuiescedHook(func(ending uint64) {
			r.certified[i][ending] = State(sh.KV.SnapshotLogical())
		})
	}
	// Certify the initial state under the hooks before tracing starts
	// (CheckpointAll runs shards concurrently, which is fine untraced).
	pool.CheckpointAll()
	for i := 0; i < pool.NumShards(); i++ {
		rec.Attach(pool.Shard(i).Heap)
	}
	return r, nil
}

type shardRun struct {
	w         *shardWorkload
	pool      *shard.Pool
	certified []Certified
}

func (r *shardRun) Execute() error {
	w := r.w
	store := r.pool.Store()
	rng := rand.New(rand.NewSource(11))
	for b := 0; b < w.batches; b++ {
		for i := 0; i < w.opsPerBatch; i++ {
			key := fmt.Sprintf("key-%02d", rng.Intn(w.keySpace))
			if rng.Intn(4) == 3 {
				store.Delete(0, key)
			} else {
				store.Set(0, key, []byte(fmt.Sprintf("v%d-%d", b, i)))
			}
		}
		// Staggered schedule: only shard b%2 cuts a checkpoint this round.
		r.pool.Shard(b % r.pool.NumShards()).RT.Checkpoint()
	}
	return nil
}

func (r *shardRun) Certified(i int) Certified { return r.certified[i] }

func (r *shardRun) SanFindings() []string {
	var out []string
	for i := 0; i < r.pool.NumShards(); i++ {
		for _, f := range r.pool.Shard(i).RT.SanFindings() {
			out = append(out, fmt.Sprintf("shard %d: %s", i, f))
		}
	}
	return out
}

func (r *shardRun) Recover() ([]Recovered, error) {
	heaps := make([]*pmem.Heap, r.pool.NumShards())
	for i := range heaps {
		heaps[i] = r.pool.Shard(i).Heap
	}
	p2, rep, err := shard.Recover(r.w.shardConfig(false), heaps)
	if err != nil {
		return nil, err
	}
	out := make([]Recovered, len(heaps))
	for i := range out {
		out[i] = Recovered{
			FailedEpoch: rep.PerShard[i].FailedEpoch,
			State:       State(p2.Shard(i).KV.SnapshotLogical()),
		}
	}
	return out, nil
}

// kvBatchWorkload drives a gated kv.RespctStore through the server's binary
// batch path: each round encodes a multi-op request frame with the wire
// codec, decodes it, and executes it whole with kv.ApplyFrame — the code a
// kv.Server worker runs for a pipelined client, one gated store call per
// operation. The async variant applies a further frame while the
// previous epoch's drain is parked on a gate: a client batch in flight
// across the checkpoint cut. The checker then proves batched execution is
// atomic w.r.t. the certified epoch the same way single ops are — every
// crash point recovers to a certified checkpoint state, never to a state
// only reachable by splitting a frame across the cut.
type kvBatchWorkload struct {
	name        string
	async       bool
	collide     bool // async only: apply a frame while the drain is parked
	frames      int
	opsPerFrame int
	keySpace    int
}

func (w *kvBatchWorkload) Name() string { return w.name }

func (w *kvBatchWorkload) Setup(rec *pmem.Recorder, sanitize bool) (Run, error) {
	h := explorerHeap()
	rt, err := core.NewRuntime(h, explorerCoreConfig(w.async, sanitize))
	if err != nil {
		return nil, err
	}
	st, err := kv.NewRespctStore(rt, 0, 128)
	if err != nil {
		return nil, err
	}
	r := &kvBatchRun{w: w, h: h, rt: rt, st: kv.Gate(st), certified: Certified{}}
	rt.SetQuiescedHook(func(ending uint64) {
		r.certified[ending] = State(st.SnapshotLogical())
	})
	initialCheckpoint(rt, w.async)
	rec.Attach(h)
	return r, nil
}

type kvBatchRun struct {
	w         *kvBatchWorkload
	h         *pmem.Heap
	rt        *core.Runtime
	st        *kv.GatedStore
	certified Certified
}

// buildFrame encodes one deterministic request batch and decodes it back,
// exactly as a frame arrives at a server worker.
func (r *kvBatchRun) buildFrame(rng *rand.Rand, round int, f *wire.ReqFrame) error {
	var b wire.ReqBuilder
	for i := 0; i < r.w.opsPerFrame; i++ {
		key := fmt.Sprintf("key-%02d", rng.Intn(r.w.keySpace))
		switch rng.Intn(5) {
		case 0:
			b.Delete(key)
		case 1:
			b.Get(key)
		default:
			b.Set(key, []byte(fmt.Sprintf("v%d-%d", round, i)))
		}
	}
	return f.Decode(bytes.NewReader(b.Bytes()))
}

func (r *kvBatchRun) Execute() error {
	w := r.w
	rt, st := r.rt, r.st
	t := rt.Thread(0)
	rng := rand.New(rand.NewSource(23))
	var f wire.ReqFrame
	var resp wire.RespBuilder
	var gate chan struct{}
	if w.async && w.collide {
		rt.SetDrainHook(func(_ uint64, preCommit bool) {
			if !preCommit {
				<-gate
			}
		})
	}
	for round := 0; round < w.frames; round++ {
		if err := r.buildFrame(rng, round, &f); err != nil {
			return err
		}
		resp.Reset()
		// Exactly what a server worker does with a claimed frame; the
		// driver only checkpoints between frames.
		if err := kv.ApplyFrame(st, 0, &f, &resp); err != nil {
			return err
		}
		gate = make(chan struct{})
		t.CheckpointAllow()
		rt.Checkpoint()
		t.CheckpointPrevent(nil)
		if w.async {
			if w.collide {
				// The in-flight batch: a whole frame of first-updates applied
				// while the previous epoch's drain is parked on the gate.
				if err := r.buildFrame(rng, 100+round, &f); err != nil {
					return err
				}
				resp.Reset()
				if err := kv.ApplyFrame(st, 0, &f, &resp); err != nil {
					return err
				}
				close(gate)
			}
			rt.WaitDrain()
		}
	}
	return nil
}

func (r *kvBatchRun) Certified(int) Certified { return r.certified }

func (r *kvBatchRun) SanFindings() []string { return r.rt.SanFindings() }

func (r *kvBatchRun) Recover() ([]Recovered, error) {
	rt2, rep, err := core.Recover(r.h, explorerCoreConfig(r.w.async, false), 1)
	if err != nil {
		return nil, err
	}
	st2, err := kv.OpenRespctStore(rt2, 0)
	if err != nil {
		return nil, err
	}
	return []Recovered{{FailedEpoch: rep.FailedEpoch, State: State(st2.SnapshotLogical())}}, nil
}

// initialCheckpoint makes a freshly-built single-runtime workload durable
// (and certifies its pre-trace state through the already-installed quiesced
// hook) before the recorder attaches.
func initialCheckpoint(rt *core.Runtime, async bool) {
	t := rt.Thread(0)
	t.CheckpointAllow()
	rt.Checkpoint()
	t.CheckpointPrevent(nil)
	if async {
		rt.WaitDrain()
	}
}
