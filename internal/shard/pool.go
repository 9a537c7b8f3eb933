package shard

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/telemetry"
)

// Config parameterises a Pool. Sizes are per shard: a pool of N shards over
// the same total key space needs roughly 1/N of the heap and buckets per
// shard that a single-runtime store would.
type Config struct {
	// Shards is the number of partitions (>= 1).
	Shards int

	// Workers is the number of worker-thread handles per shard runtime.
	// Every worker index may operate on every shard (the router decides),
	// so each shard's runtime is sized for the full worker count.
	Workers int

	// Buckets is the per-shard hash-table size.
	Buckets int

	// HeapBytes is the per-shard simulated NVMM size.
	HeapBytes int64

	// Interval is the checkpoint driver's tick: shards checkpoint
	// staggered, round-robin, one shard per tick. A stall only ever covers
	// one shard, and each shard's flush coalesces Shards intervals of
	// updates (hot lines are written back once instead of Shards times), but
	// a shard's recovery point can be up to Shards*Interval old. Each shard
	// commits its own epoch, so the store is never atomic across shards.
	// Zero disables the driver (callers may drive CheckpointAll themselves).
	Interval time.Duration

	// Async enables asynchronous checkpointing (core.Config.AsyncFlush) on
	// every shard runtime: a checkpoint only parks a shard's workers for
	// the cut, and the flush plus the durable epoch commit run in the
	// background. The staleness bound doubles (see core.Config).
	Async bool

	// Chaos builds chaos-mode heaps (random background eviction hazard)
	// seeded per shard from Seed; crash soaks use it.
	Chaos bool

	// SerialFlush disables every shard runtime's parallel flusher pool
	// (core.Config.SerialFlush). The deterministic crash-point explorer
	// sets it so each shard's write-back order is reproducible run-to-run.
	SerialFlush bool

	// Seed seeds per-shard chaos heaps: shard i's heap gets Seed + i*101,
	// which is also the seed of every pmem.Evictor on that heap.
	Seed int64

	// Sanitize attaches the runtime persistency sanitizer (collect mode,
	// core.Config.Sanitize) to every shard runtime.
	Sanitize bool

	// RecoveryParallelism is the per-shard block-scan parallelism used by
	// core.Recover (shards themselves always recover in parallel).
	RecoveryParallelism int

	// Structures enables the multi-model surface (ordered scans, queues,
	// logs, TTL, atomic batches) on every shard store. Each shard runtime
	// gains one extra thread slot beyond Workers: the expiry sweeper, which
	// runs inside the checkpoint cut (see checkpointShard) so a completed
	// checkpoint never resurrects a swept record.
	Structures bool

	// Clock is the structures-mode millisecond clock (TTL deadlines and
	// the epoch-boundary sweep). Nil means wall clock. Ignored without
	// Structures.
	Clock func() uint64

	// Metrics, when non-nil, receives per-shard runtime series (labelled
	// shard="i"), one operations-routed counter per shard (router skew),
	// and pool-level gauges. Nil adds nothing to any path.
	Metrics *telemetry.Registry
}

func (cfg *Config) defaults() error {
	if cfg.Shards < 1 {
		return fmt.Errorf("shard: shard count %d < 1", cfg.Shards)
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("shard: worker count %d < 1", cfg.Workers)
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 1 << 12
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 256 << 20
	}
	if cfg.RecoveryParallelism == 0 {
		cfg.RecoveryParallelism = 4
	}
	return nil
}

func (cfg Config) newHeap(i int) *pmem.Heap {
	if cfg.Chaos {
		return pmem.New(pmem.Config{Size: cfg.HeapBytes, Chaos: true, Seed: cfg.Seed + int64(i)*101})
	}
	return pmem.New(pmem.NVMMConfig(cfg.HeapBytes))
}

// eachShard runs f(i) for every shard index in parallel and returns the
// lowest-index error.
func eachShard(n int, f func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Shard is one partition: a private heap, runtime and store. KV is the bare
// store, for snapshots and drivers that hold their own prevent window;
// operations are served through gated (see Store).
type Shard struct {
	Index int
	Heap  *pmem.Heap
	RT    *core.Runtime
	KV    *kv.RespctStore

	gated *kv.GatedStore

	// ckpt serialises checkpointShard: the driver and CheckpointAll may
	// both checkpoint the shard, and the expiry sweep that precedes each
	// checkpoint runs on the sweeper's one thread handle.
	ckpt sync.Mutex
}

// Pool owns N shards and their checkpoint schedule.
type Pool struct {
	cfg    Config
	shards []*Shard

	stop      chan struct{}
	wg        sync.WaitGroup
	started   atomic.Bool
	stopped   atomic.Bool
	maxPause  atomic.Int64 // longest single-shard checkpoint, ns
	ckptRound atomic.Uint64

	// ops counts operations routed to each shard (router skew); nil when no
	// registry was configured, and Store checks that once per operation.
	ops []*telemetry.Counter

	// snapMu serializes SnapshotFrames calls, so two snapshots of one base
	// never interleave their manifest writes.
	snapMu sync.Mutex
}

// rtThreads is the per-shard runtime thread count: one slot per worker,
// plus the expiry sweeper's slot in structures mode.
func (cfg Config) rtThreads() int {
	if cfg.Structures {
		return cfg.Workers + 1
	}
	return cfg.Workers
}

// sweeperThread is the expiry sweeper's thread index (structures mode).
func (cfg Config) sweeperThread() int { return cfg.Workers }

// storeOptions builds the per-shard store options.
func (cfg Config) storeOptions() kv.StoreOptions {
	return kv.StoreOptions{Buckets: cfg.Buckets, Structures: cfg.Structures, Clock: cfg.Clock}
}

// shardRTConfig builds shard i's runtime config, labelling its series.
func (cfg Config) shardRTConfig(i int) core.Config {
	c := core.Config{Threads: cfg.rtThreads(), AsyncFlush: cfg.Async, SerialFlush: cfg.SerialFlush,
		Sanitize: cfg.Sanitize, Metrics: cfg.Metrics}
	if cfg.Metrics != nil {
		c.MetricsLabels = telemetry.Labels{"shard": strconv.Itoa(i)}
	}
	return c
}

// initMetrics registers the pool-level series and the per-shard routed-ops
// counters. Called once the shards slice is populated.
func (p *Pool) initMetrics() {
	reg := p.cfg.Metrics
	if reg == nil {
		return
	}
	p.ops = make([]*telemetry.Counter, len(p.shards))
	for i := range p.ops {
		p.ops[i] = reg.Counter("respct_shard_ops_total", "operations routed to the shard",
			telemetry.Labels{"shard": strconv.Itoa(i)})
	}
	reg.GaugeFunc("respct_pool_shards", "configured shard count", nil,
		func() float64 { return float64(len(p.shards)) })
	reg.GaugeFunc("respct_pool_max_pause_ns", "longest single-shard checkpoint pause", nil,
		func() float64 { return float64(p.maxPause.Load()) })
	reg.GaugeFunc("respct_pool_checkpoint_rounds", "completed CheckpointAll rounds", nil,
		func() float64 { return float64(p.ckptRound.Load()) })
}

// NewPool formats cfg.Shards fresh shards and makes their empty stores
// durable. The checkpoint driver is not started — call Start once any
// quiesced hooks (crash soaks) are installed.
func NewPool(cfg Config) (*Pool, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg, shards: make([]*Shard, cfg.Shards), stop: make(chan struct{})}
	err := eachShard(cfg.Shards, func(i int) error {
		h := cfg.newHeap(i)
		rt, err := core.NewRuntime(h, cfg.shardRTConfig(i))
		if err != nil {
			return err
		}
		st, err := kv.NewRespctStoreOpts(rt, 0, cfg.storeOptions())
		if err != nil {
			return err
		}
		// Gating every runtime thread (workers and, in structures mode, the
		// sweeper) leaves its allow window open — pool workers only close it
		// around an operation on this specific shard — so the empty store
		// can be made durable right here.
		gated := kv.Gate(st)
		rt.Checkpoint()
		p.shards[i] = &Shard{Index: i, Heap: h, RT: rt, KV: st, gated: gated}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.initMetrics()
	return p, nil
}

// Recover rebuilds a pool from crashed (or reopened) per-shard heaps: every
// shard recovers in parallel, each rolling back to its own last completed
// checkpoint. The merged report aggregates the per-shard passes; Duration is
// the wall-clock time of the parallel recovery. The checkpoint driver is not
// started — call Start.
func Recover(cfg Config, heaps []*pmem.Heap) (*Pool, *RecoveryReport, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	if len(heaps) != cfg.Shards {
		return nil, nil, fmt.Errorf("shard: %d heaps for %d shards", len(heaps), cfg.Shards)
	}
	start := time.Now()
	p := &Pool{cfg: cfg, shards: make([]*Shard, cfg.Shards), stop: make(chan struct{})}
	rep := &RecoveryReport{PerShard: make([]core.RecoveryReport, cfg.Shards)}
	err := eachShard(cfg.Shards, func(i int) error {
		rt, r, err := core.Recover(heaps[i], cfg.shardRTConfig(i), cfg.RecoveryParallelism)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		st, err := kv.OpenRespctStoreOpts(rt, 0, cfg.storeOptions())
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		rep.PerShard[i] = *r
		p.shards[i] = &Shard{Index: i, Heap: heaps[i], RT: rt, KV: st, gated: kv.Gate(st)}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rep.Duration = time.Since(start)
	rep.merge()
	p.initMetrics()
	return p, rep, nil
}

// RecoveryReport merges the per-shard recovery passes.
type RecoveryReport struct {
	PerShard        []core.RecoveryReport
	BlocksScanned   int
	CellsScanned    int
	CellsRolledBack int
	Duration        time.Duration // wall clock of the parallel recovery
}

func (r *RecoveryReport) merge() {
	for _, s := range r.PerShard {
		r.BlocksScanned += s.BlocksScanned
		r.CellsScanned += s.CellsScanned
		r.CellsRolledBack += s.CellsRolledBack
	}
}

// FailedEpochs returns each shard's failed epoch (shards checkpoint
// independently, so the epochs generally differ).
func (r *RecoveryReport) FailedEpochs() []uint64 {
	out := make([]uint64, len(r.PerShard))
	for i, s := range r.PerShard {
		out[i] = s.FailedEpoch
	}
	return out
}

// NumShards returns the shard count.
func (p *Pool) NumShards() int { return len(p.shards) }

// Shard returns partition i.
func (p *Pool) Shard(i int) *Shard { return p.shards[i] }

// Config returns the pool's configuration (after defaulting).
func (p *Pool) Config() Config { return p.cfg }

// Start launches the checkpoint driver: each tick, one every Interval,
// checkpoints the next shard round-robin (so at most one shard pauses at a
// time and each shard's period is Shards*Interval). A zero Interval makes
// Start a no-op.
func (p *Pool) Start() {
	if p.cfg.Interval <= 0 || !p.started.CompareAndSwap(false, true) {
		return
	}
	tick := p.cfg.Interval
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		timer := time.NewTimer(tick)
		defer timer.Stop()
		next := 0
		for {
			select {
			case <-p.stop:
				return
			case <-timer.C:
			}
			p.checkpointShard(next)
			next = (next + 1) % len(p.shards)
			timer.Reset(tick)
		}
	}()
}

// clockNow reads the structures clock (wall clock unless Config.Clock).
func (p *Pool) clockNow() uint64 {
	if p.cfg.Clock != nil {
		return p.cfg.Clock()
	}
	return uint64(time.Now().UnixMilli())
}

// checkpointShard checkpoints one live shard and records the pause. In
// structures mode the expiry sweep runs first, as one gated operation on the
// sweeper's dedicated thread slot: every record due at the epoch
// boundary is unlinked inside the epoch the checkpoint is about to cut, so
// a completed checkpoint never captures (and recovery never resurrects) a
// record past its deadline.
func (p *Pool) checkpointShard(i int) {
	sh := p.shards[i]
	sh.ckpt.Lock()
	defer sh.ckpt.Unlock()
	if sh.Heap.Crashed() {
		return
	}
	if p.cfg.Structures {
		sh.gated.SweepExpired(p.cfg.sweeperThread(), p.clockNow())
	}
	info := sh.RT.Checkpoint()
	for {
		cur := p.maxPause.Load()
		if int64(info.Total) <= cur || p.maxPause.CompareAndSwap(cur, int64(info.Total)) {
			break
		}
	}
}

// CheckpointAll runs one checkpoint on every live shard in parallel and
// returns when all complete. Used by snapshotting and by callers that drive
// checkpoints themselves.
func (p *Pool) CheckpointAll() {
	eachShard(len(p.shards), func(i int) error {
		p.checkpointShard(i)
		return nil
	})
	p.ckptRound.Add(1)
}

// Close stops the checkpoint driver and waits for any in-flight checkpoint —
// including, in async mode, any background drain still committing its epoch.
// Shard state stays readable afterwards.
func (p *Pool) Close() {
	if p.stopped.CompareAndSwap(false, true) {
		close(p.stop)
	}
	p.wg.Wait()
	p.WaitDrains()
}

// WaitDrains blocks until every shard's in-flight background drain (async
// mode) has fully committed. A no-op for sync pools.
func (p *Pool) WaitDrains() {
	for _, sh := range p.shards {
		sh.RT.WaitDrain()
	}
}

// PoolStats aggregates checkpoint activity across shards.
type PoolStats struct {
	Shards      int
	Checkpoints uint64
	AddrsSeen   uint64
	LinesWrote  uint64
	GateWait    time.Duration
	FlushTime   time.Duration
	TotalPause  time.Duration
	MaxPause    time.Duration // longest single-shard pause seen by the driver

	// Async-mode aggregates (zero for sync pools).
	Drains           uint64
	CommitLag        time.Duration
	CollisionFlushes uint64
	CollisionsLogged uint64
	CollisionLogPeak uint64 // max over shards

	// Allocator magazine aggregates.
	MagazineRecycled uint64
	MagazineSpilled  uint64
}

// Stats merges every shard runtime's counters.
func (p *Pool) Stats() PoolStats {
	out := PoolStats{Shards: len(p.shards), MaxPause: time.Duration(p.maxPause.Load())}
	for _, sh := range p.shards {
		s := sh.RT.Stats()
		out.Checkpoints += s.Checkpoints
		out.AddrsSeen += s.AddrsSeen
		out.LinesWrote += s.LinesWrote
		out.GateWait += s.GateWait
		out.FlushTime += s.FlushTime
		out.TotalPause += s.TotalPause
		out.Drains += s.Drains
		out.CommitLag += s.CommitLag
		out.CollisionFlushes += s.CollisionFlushes
		out.CollisionsLogged += s.CollisionsLogged
		out.CollisionLogPeak = max(out.CollisionLogPeak, s.CollisionLogPeak)
		out.MagazineRecycled += s.MagazineRecycled
		out.MagazineSpilled += s.MagazineSpilled
	}
	return out
}
