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
)

// TestKVStoreSoak validates buffered durable linearizability end to end at
// the key-value layer: concurrent string-keyed sets and deletes over the
// RespctStore on a chaos-mode heap, a crash at a random point, and a
// recovered state that must equal the snapshot certified by the last
// completed checkpoint.
func TestKVStoreSoak(t *testing.T) {
	for seed := int64(1); seed <= soakSeeds(4); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const threads = 4
			h := pmem.New(pmem.Config{Size: 256 << 20, Chaos: true, Seed: seed})
			rt, err := core.NewRuntime(h, core.Config{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			store, err := kv.NewRespctStore(rt, 0, 1024)
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
						rt.Checkpoint()
					}
				}
			}()
			ev := pmem.NewEvictor(h, 32)
			ev.Start()

			var stop atomic.Bool
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed + int64(th)*17))
					for !stop.Load() {
						key := fmt.Sprintf("user%06d", rng.Intn(2000))
						if rng.Intn(4) == 0 {
							store.Delete(th, key)
						} else {
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

			rt2, rep, err := core.Recover(h, core.Config{Threads: threads}, 4)
			if err != nil {
				t.Fatal(err)
			}
			certMu.Lock()
			want := snaps[rep.FailedEpoch-1]
			certMu.Unlock()
			store2, err := kv.OpenRespctStore(rt2, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := store2.SnapshotLogical()
			if len(got) != len(want) {
				t.Fatalf("recovered %d keys, certified %d (failed epoch %d)", len(got), len(want), rep.FailedEpoch)
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %q = %q, certified %q", k, got[k], v)
				}
			}
		})
	}
}
