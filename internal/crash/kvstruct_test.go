package crash

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/shard"
)

// TestKVStructSoak extends the KV soak to the full multi-model surface:
// concurrent workers drive ordered-index churn (sets/deletes behind SCAN),
// the TTL lifecycle, shared queues and logs on a chaos-mode heap, a
// dedicated sweeper thread runs the expiry sweep inside every checkpoint
// cut, and a crash at a random point must recover the whole logical state
// (KV entries with deadlines plus the ordered-index, queue and log
// pseudo-keys) to the snapshot certified by the last completed checkpoint.
func TestKVStructSoak(t *testing.T) {
	for seed := int64(1); seed <= soakSeeds(4); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const workers = 4
			const sweeper = workers // dedicated thread slot, like shard.Pool
			var clock atomic.Uint64
			clock.Store(1000)
			h := pmem.New(pmem.Config{Size: 256 << 20, Chaos: true, Seed: seed})
			rt, err := core.NewRuntime(h, core.Config{Threads: workers + 1})
			if err != nil {
				t.Fatal(err)
			}
			store, err := kv.NewRespctStoreOpts(rt, 0, kv.StoreOptions{
				Buckets: 1024, Structures: true, Clock: clock.Load})
			if err != nil {
				t.Fatal(err)
			}
			rt.CheckpointIdle()

			var certMu sync.Mutex
			snaps := map[uint64]map[string]string{}
			rt.SetQuiescedHook(func(ending uint64) {
				snap := store.SnapshotLogical()
				certMu.Lock()
				snaps[ending] = snap
				certMu.Unlock()
			})
			ckStop := make(chan struct{})
			var ckWg sync.WaitGroup
			ckWg.Add(1)
			go func() {
				defer ckWg.Done()
				tsw := rt.Thread(sweeper)
				tick := time.NewTicker(4 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-ckStop:
						return
					case <-tick.C:
						if h.Crashed() {
							return
						}
						// Advance time, sweep inside the epoch about to be
						// cut, then checkpoint — shard.Pool.checkpointShard's
						// schedule.
						now := clock.Add(7)
						tsw.CheckpointPrevent(nil)
						store.SweepExpired(sweeper, now)
						store.PerOp(sweeper)
						tsw.CheckpointAllow()
						rt.Checkpoint()
					}
				}
			}()
			ev := pmem.NewEvictor(h, 32)
			ev.Start()

			var stop atomic.Bool
			var wg sync.WaitGroup
			for th := 0; th < workers; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed + int64(th)*17))
					for !stop.Load() {
						key := fmt.Sprintf("user%05d", rng.Intn(1500))
						switch rng.Intn(10) {
						case 0:
							store.Delete(th, key)
						case 1:
							store.Expire(th, key, clock.Load()+uint64(rng.Intn(40)))
						case 2:
							store.Scan(th, key, "", 8)
						case 3:
							store.QPush(th, "jobs", []byte(fmt.Sprintf("j%d-%d", th, rng.Intn(1000))))
						case 4:
							store.QPop(th, "jobs")
						case 5:
							store.LAppend(th, "events", []byte(fmt.Sprintf("e%d-%d", th, rng.Intn(1000))))
						case 6:
							store.TTL(th, key)
						default:
							store.Set(th, key, []byte(fmt.Sprintf("v%d-%d", th, rng.Intn(1000))))
						}
						store.PerOp(th)
					}
					store.ThreadExit(th)
				}(th)
			}

			time.Sleep(time.Duration(seed%5+2) * 3 * time.Millisecond)
			h.Crash()
			stop.Store(true)
			wg.Wait()
			ev.Stop()
			close(ckStop)
			ckWg.Wait()

			rt2, rep, err := core.Recover(h, core.Config{Threads: workers + 1}, 4)
			if err != nil {
				t.Fatal(err)
			}
			certMu.Lock()
			want := snaps[rep.FailedEpoch-1]
			certMu.Unlock()
			store2, err := kv.OpenRespctStoreOpts(rt2, 0, kv.StoreOptions{
				Structures: true, Clock: clock.Load})
			if err != nil {
				t.Fatal(err)
			}
			got := store2.SnapshotLogical()
			if len(got) != len(want) {
				t.Fatalf("recovered %d logical entries, certified %d (failed epoch %d)",
					len(got), len(want), rep.FailedEpoch)
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("entry %q = %q, certified %q", k, got[k], v)
				}
			}
			if err := store2.CheckIndexes(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardStructSoak is the sharded variant: a structures pool under the
// staggered checkpoint driver (which sweeps each shard inside its cut),
// concurrent workers across every command family, then a whole-machine
// crash; every shard must recover to its own certified cut.
func TestShardStructSoak(t *testing.T) {
	runShardStructSoak(t, false)
}

// TestShardStructSoakSync: same with the synchronized schedule.
func TestShardStructSoakSync(t *testing.T) {
	runShardStructSoak(t, true)
}

func runShardStructSoak(t *testing.T, syncCk bool) {
	for seed := int64(1); seed <= soakSeeds(2); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const shards = 3
			const workers = 2
			var clock atomic.Uint64
			clock.Store(1000)
			cfg := shard.Config{
				Shards:     shards,
				Workers:    workers,
				Buckets:    1 << 9,
				HeapBytes:  16 << 20,
				Interval:   3 * time.Millisecond,
				Sync:       syncCk,
				Chaos:      true,
				Seed:       seed,
				Structures: true,
				Clock:      clock.Load,
			}
			pool, err := shard.NewPool(cfg)
			if err != nil {
				t.Fatal(err)
			}
			store := pool.Store()

			var certMu sync.Mutex
			snaps := make([]map[uint64]map[string]string, shards)
			for i := 0; i < shards; i++ {
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

			evictors := make([]*pmem.Evictor, shards)
			for i := range evictors {
				evictors[i] = pmem.NewEvictor(pool.Shard(i).Heap, 16)
				evictors[i].Start()
			}

			clkStop := make(chan struct{})
			var clkWg sync.WaitGroup
			clkWg.Add(1)
			go func() {
				defer clkWg.Done()
				tick := time.NewTicker(time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-clkStop:
						return
					case <-tick.C:
						clock.Add(13)
					}
				}
			}()

			var stop atomic.Bool
			var wg sync.WaitGroup
			for th := 0; th < workers; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed + int64(th)*17))
					for !stop.Load() {
						key := fmt.Sprintf("user%05d", rng.Intn(400))
						switch rng.Intn(10) {
						case 0:
							store.Delete(th, key)
						case 1:
							store.Expire(th, key, clock.Load()+uint64(rng.Intn(30)))
						case 2:
							store.Scan(th, key, "", 6)
						case 3:
							store.QPush(th, "jobs", []byte(fmt.Sprintf("j%d", rng.Intn(1000))))
						case 4:
							store.QPop(th, "jobs")
						case 5:
							store.LAppend(th, "events", []byte(fmt.Sprintf("e%d", rng.Intn(1000))))
						case 6:
							store.TTL(th, key)
						default:
							store.Set(th, key, []byte(fmt.Sprintf("v%d-%d", th, rng.Intn(1000))))
						}
					}
					store.ThreadExit(th)
				}(th)
			}

			time.Sleep(time.Duration(seed%5+2) * 4 * time.Millisecond)
			for i := 0; i < shards; i++ {
				pool.Shard(i).Heap.Crash()
			}
			stop.Store(true)
			wg.Wait()
			for _, ev := range evictors {
				ev.Stop()
			}
			close(clkStop)
			clkWg.Wait()
			heaps := make([]*pmem.Heap, shards)
			for i := range heaps {
				heaps[i] = pool.Shard(i).Heap
			}
			pool.Close()

			rcfg := cfg
			rcfg.Interval = 0
			pool2, rep, err := shard.Recover(rcfg, heaps)
			if err != nil {
				t.Fatal(err)
			}
			defer pool2.Close()
			for i := 0; i < shards; i++ {
				failed := rep.PerShard[i].FailedEpoch
				certMu.Lock()
				want := snaps[i][failed-1]
				certMu.Unlock()
				got := pool2.Shard(i).KV.SnapshotLogical()
				if len(got) != len(want) {
					t.Fatalf("shard %d recovered %d logical entries, certified %d (failed epoch %d)",
						i, len(got), len(want), failed)
				}
				for k, v := range want {
					if got[k] != v {
						t.Fatalf("shard %d entry %q = %q, certified %q", i, k, got[k], v)
					}
				}
				if err := pool2.Shard(i).KV.CheckIndexes(); err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
			}
		})
	}
}
