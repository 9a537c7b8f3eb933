package crash

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/shard"
)

// ShardedSoakConfig parameterises one sharded KV crash soak.
type ShardedSoakConfig struct {
	Shards    int           // shard (heap) count
	Threads   int           // concurrent workers driving the sharded store
	Buckets   int           // per-shard buckets
	KeySpace  int           // distinct string keys
	Interval  time.Duration // per-shard checkpoint period
	Sync      bool          // synchronized instead of staggered checkpoints
	EvictRate int           // chaos evictor probe rate per shard
	Seed      int64         // workload and chaos RNG seed
	HeapBytes int64         // per-shard heap size
	RunFor    time.Duration // wall-clock run length before the crash fires
}

// ShardedSoakReport describes one sharded soak run.
type ShardedSoakReport struct {
	Shards         int      // shards the soak ran with
	Checkpoints    uint64   // checkpoints completed across all shards
	FailedEpochs   []uint64 // per-shard interrupted epochs (they differ under staggering)
	CertifiedKeys  int      // summed over shards
	RecoveredKeys  int      // keys recovered, summed over shards
	OpsBeforeCrash uint64   // store ops completed when the crash fired
}

// ShardedKVSoak validates buffered durable linearizability per shard:
// concurrent workers hammer a sharded store whose shards live on
// chaos-mode heaps (random eviction pushes torn state into NVMM), the whole
// pool crashes at a random moment, every shard recovers in parallel, and
// each shard's recovered state must equal the logical snapshot certified at
// that shard's own last completed checkpoint. Shards checkpoint on
// independent (staggered) schedules, so the recovered prefixes legitimately
// differ in freshness across shards — each is validated independently.
func ShardedKVSoak(cfg ShardedSoakConfig) (*ShardedSoakReport, error) {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 64 << 20
	}
	if cfg.RunFor == 0 {
		cfg.RunFor = time.Duration(cfg.Seed%5+2) * 3 * time.Millisecond
	}
	pcfg := shard.Config{
		Shards:    cfg.Shards,
		Workers:   cfg.Threads,
		Buckets:   cfg.Buckets,
		HeapBytes: cfg.HeapBytes,
		Interval:  cfg.Interval,
		Sync:      cfg.Sync,
		Chaos:     true,
		Seed:      cfg.Seed,
	}
	pool, err := shard.NewPool(pcfg)
	if err != nil {
		return nil, err
	}
	store := pool.Store()

	// Certify a per-shard logical snapshot at each shard checkpoint, keyed
	// by the epoch that checkpoint closes. The hook runs while the shard's
	// workers are parked, before its flush: what it sees is exactly what
	// that checkpoint makes durable for that shard. Hooks must be installed
	// before Start so no checkpoint can race the installation.
	var certMu sync.Mutex
	snaps := make([]map[uint64]map[string]string, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		snaps[i] = map[uint64]map[string]string{}
		sh := pool.Shard(i)
		sh.RT.SetQuiescedHook(func(ending uint64) {
			snap := sh.KV.SnapshotLogical()
			certMu.Lock()
			snaps[sh.Index][ending] = snap
			certMu.Unlock()
		})
	}
	pool.Start()

	evictors := make([]*pmem.Evictor, cfg.Shards)
	for i := range evictors {
		evictors[i] = pmem.NewEvictor(pool.Shard(i).Heap, cfg.EvictRate)
		evictors[i].Start()
	}

	var stop atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for th := 0; th < cfg.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(th)*17))
			for !stop.Load() {
				key := fmt.Sprintf("user%06d", rng.Intn(cfg.KeySpace))
				switch rng.Intn(5) {
				case 0:
					store.Delete(th, key)
				case 1:
					store.Get(th, key)
				default:
					store.Set(th, key, []byte(fmt.Sprintf("v%d-%d", th, rng.Intn(1000))))
				}
				ops.Add(1)
			}
			store.ThreadExit(th)
		}(th)
	}

	// Power failure at a random point while work is in flight: every shard
	// heap crashes (the machine hosts them all).
	time.Sleep(cfg.RunFor)
	for i := 0; i < cfg.Shards; i++ {
		pool.Shard(i).Heap.Crash()
	}
	stop.Store(true)
	wg.Wait()
	for _, ev := range evictors {
		ev.Stop()
	}
	ckCount := pool.Stats().Checkpoints
	heaps := make([]*pmem.Heap, cfg.Shards)
	for i := range heaps {
		heaps[i] = pool.Shard(i).Heap
	}
	pool.Close()

	rcfg := pcfg
	rcfg.Interval = 0 // the recovered pool is only read, no checkpointer
	pool2, rep, err := shard.Recover(rcfg, heaps)
	if err != nil {
		return nil, err
	}
	defer pool2.Close()

	report := &ShardedSoakReport{
		Shards:         cfg.Shards,
		Checkpoints:    ckCount,
		FailedEpochs:   rep.FailedEpochs(),
		OpsBeforeCrash: ops.Load(),
	}
	// Validate each shard's recovered prefix independently against the
	// snapshot its own last completed checkpoint certified.
	for i := 0; i < cfg.Shards; i++ {
		failed := rep.PerShard[i].FailedEpoch
		certMu.Lock()
		want := snaps[i][failed-1] // nil (empty) if this shard never checkpointed under load
		certMu.Unlock()
		got := pool2.Shard(i).KV.SnapshotLogical()
		report.CertifiedKeys += len(want)
		report.RecoveredKeys += len(got)
		if len(got) != len(want) {
			return report, fmt.Errorf("crash: shard %d recovered %d keys, certified snapshot has %d (failed epoch %d)",
				i, len(got), len(want), failed)
		}
		for k, v := range want {
			if gv, ok := got[k]; !ok || gv != v {
				return report, fmt.Errorf("crash: shard %d key %q = %q,%v; certified %q", i, k, gv, ok, v)
			}
		}
		// Routing invariant: every recovered key belongs on this shard.
		for k := range got {
			if home := pool2.ShardFor(k); home != i {
				return report, fmt.Errorf("crash: key %q recovered on shard %d but routes to %d", k, i, home)
			}
		}
	}
	return report, nil
}
