package crash

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// TestSkipListSoak: the sorted map under chaos eviction, concurrent workers,
// random crash — recovered contents must equal the certified snapshot, in
// order.
func TestSkipListSoak(t *testing.T) {
	for seed := int64(1); seed <= soakSeeds(4); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const threads = 4
			h := pmem.New(pmem.Config{Size: 256 << 20, Chaos: true, Seed: seed})
			rt, err := core.NewRuntime(h, core.Config{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			sl, err := structures.NewRespctSkipList(rt, 0)
			if err != nil {
				t.Fatal(err)
			}
			rt.CheckpointIdle()

			type snap struct{ keys, vals []uint64 }
			var certMu sync.Mutex
			snaps := map[uint64]snap{}
			rt.SetQuiescedHook(func(ending uint64) {
				k, v := sl.Snapshot()
				certMu.Lock()
				snaps[ending] = snap{k, v}
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
					rng := rand.New(rand.NewSource(seed + int64(th)*13))
					for !stop.Load() {
						k := uint64(rng.Intn(4096)) + 1
						switch rng.Intn(3) {
						case 0:
							sl.Insert(th, k, k*3)
						case 1:
							sl.Remove(th, k)
						default:
							sl.Get(th, k)
						}
						sl.PerOp(th)
					}
					sl.ThreadExit(th)
				}(th)
			}

			time.Sleep(time.Duration(seed%4+2) * 3 * time.Millisecond)
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
			sl2, err := structures.OpenRespctSkipList(rt2, 0)
			if err != nil {
				t.Fatal(err)
			}
			gotK, gotV := sl2.Snapshot()
			if len(gotK) != len(want.keys) {
				t.Fatalf("recovered %d keys, certified %d (failed epoch %d)", len(gotK), len(want.keys), rep.FailedEpoch)
			}
			for i := range want.keys {
				if gotK[i] != want.keys[i] || gotV[i] != want.vals[i] {
					t.Fatalf("entry %d = (%d,%d), certified (%d,%d)", i, gotK[i], gotV[i], want.keys[i], want.vals[i])
				}
			}
		})
	}
}

// TestLogSoak: concurrent appends to the append-only log under chaos
// eviction with a random crash. The recovered log must hold exactly the
// certified record count, and every surviving record must be intact (a
// record each worker wrote with a self-describing payload).
func TestLogSoak(t *testing.T) {
	for seed := int64(1); seed <= soakSeeds(4); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const threads = 4
			h := pmem.New(pmem.Config{Size: 256 << 20, Chaos: true, Seed: seed})
			rt, err := core.NewRuntime(h, core.Config{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			l, err := structures.NewRespctLog(rt, 0)
			if err != nil {
				t.Fatal(err)
			}
			rt.CheckpointIdle()

			var certMu sync.Mutex
			snaps := map[uint64]uint64{} // ending epoch -> record count
			rt.SetQuiescedHook(func(ending uint64) {
				n := l.Len()
				certMu.Lock()
				snaps[ending] = n
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
					for i := 0; !stop.Load(); i++ {
						l.Append(th, []byte(fmt.Sprintf("w%d-%06d-payload", th, i)))
						l.PerOp(th)
					}
					l.ThreadExit(th)
				}(th)
			}

			time.Sleep(time.Duration(seed%4+2) * 3 * time.Millisecond)
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
			l2, err := structures.OpenRespctLog(rt2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := l2.Len(); got != want {
				t.Fatalf("recovered %d records, certified %d (failed epoch %d)", got, want, rep.FailedEpoch)
			}
			seen := uint64(0)
			l2.ForEach(func(i uint64, rec []byte) bool {
				var w, n int
				if _, err := fmt.Sscanf(string(rec), "w%d-%06d-payload", &w, &n); err != nil {
					t.Fatalf("record %d corrupt: %q", i, rec)
				}
				seen++
				return true
			})
			if seen != want {
				t.Fatalf("iterated %d records, certified %d", seen, want)
			}
		})
	}
}
