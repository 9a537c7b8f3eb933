package crash

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/shard"
)

// soakSeeds lists seeds 1..full, capped at two in -short mode (the README's
// "-short trims property-test iterations"): on a slow host the race-detector
// pass over every full-length soak would exceed the default package timeout.
// A race-slowed short run often crashes before its first checkpoint; if
// every run of a row does, the driver retries it on longer runs (see
// RunSeeds).
func soakSeeds(full int64) []int64 {
	if testing.Short() && full > 2 {
		full = 2
	}
	var seeds []int64
	for seed := int64(1); seed <= full; seed++ {
		seeds = append(seeds, seed)
	}
	return seeds
}

// soak runs a row over seeds, one subtest per seed, with check applied to
// every report; the row fails if it is vacuous (see RunSeeds). Each run
// logs the driver's requested and achieved period.
func soak[S Subject](t *testing.T, r Soak[S], seeds []int64, check func(t *testing.T, rep *SoakReport)) {
	t.Helper()
	err := r.RunSeeds(seeds, func(seed int64, run func() (*SoakReport, error)) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep, err := run()
			if err != nil {
				t.Fatalf("%v (report %+v)", err, rep)
			}
			if r.Interval > 0 {
				t.Logf("period %v requested, %v achieved", r.Interval, rep.Period.Round(time.Microsecond))
			}
			if check != nil {
				check(t, rep)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func opsRan(t *testing.T, rep *SoakReport) {
	if rep.OpsBeforeCrash == 0 {
		t.Fatalf("crash before any work (report %+v)", rep)
	}
}

func drainInterrupted(t *testing.T, rep *SoakReport) {
	if !rep.DrainInterrupted {
		t.Fatalf("targeted drain crash not detected by recovery (report %+v)", rep)
	}
}

// crashAfter crashes (seed%mod+base) units into the run.
func crashAfter(mod, base int64, unit time.Duration) func(int64) time.Duration {
	return func(seed int64) time.Duration { return time.Duration(seed%mod+base) * unit }
}

// chaosEnv is one chaos heap of the given size and a runtime of threads.
func chaosEnv(seed int64, threads int, heapBytes int64) Env {
	return Env{
		Heap:     pmem.Config{Size: heapBytes, Chaos: true, Seed: seed},
		Core:     core.Config{Threads: threads},
		Recovery: 4,
	}
}

var mapCfg = MapSoakConfig{
	Threads:   4,
	Buckets:   512,
	KeySpace:  2048,
	EvictRate: 32,
	Interval:  4 * time.Millisecond,
	HeapBytes: 128 << 20,
}

func TestMapSoakManySeeds(t *testing.T) {
	soak(t, MapSoak(mapCfg), soakSeeds(8), opsRan)
}

func TestQueueSoakManySeeds(t *testing.T) {
	soak(t, QueueSoak(mapCfg), soakSeeds(8), nil)
}

// From almost-no eviction (nothing but checkpoint flushes reach NVMM) to
// aggressive eviction (most of the doomed epoch is already in NVMM),
// recovery must always land on the certified snapshot. Every rate runs
// seed 3 once and seed 101 twice: the chaos seed fixes the evictor's draws
// but not the schedule, so the repeat crashes another interleaving. The
// subtests seed3, seed101 and seed101#01 therefore exist however fast the
// host is (101 is also the first vacuous-row retry seed; see RunSeeds).
func TestMapSoakEvictionRates(t *testing.T) {
	for _, rate := range []int{1, 64, 1024} {
		t.Run(fmt.Sprintf("rate%d", rate), func(t *testing.T) {
			cfg := mapCfg
			cfg.EvictRate = rate
			soak(t, MapSoak(cfg), []int64{3, 101, 101}, nil)
		})
	}
}

// asyncMapSoak is the map row on an asynchronous-flush runtime.
func asyncMapSoak(interval time.Duration) Soak[*Map] {
	cfg := mapCfg
	cfg.Interval = interval
	r := MapSoak(cfg)
	r.New = func(seed int64) (*Map, error) {
		env := cfg.env(seed)
		env.Core.AsyncFlush = true
		return NewMap(env, cfg.Buckets)
	}
	return r
}

// TestAsyncMapSoakCrashInDrainWindow kills the heap at the start of a chosen
// background drain, with the drain held open long enough for workers to
// collide with the cut's pending lines. Recovery must land exactly on the
// previous completed checkpoint and report the interrupted drain.
func TestAsyncMapSoakCrashInDrainWindow(t *testing.T) {
	for _, seed := range soakSeeds(6) {
		r := asyncMapSoak(mapCfg.Interval)
		r.CrashAfter = nil
		r.CrashDrain = 2 + uint64(seed%3)
		r.DrainDelay = 2 * r.Interval
		soak(t, r, []int64{seed}, func(t *testing.T, rep *SoakReport) {
			drainInterrupted(t, rep)
			opsRan(t, rep)
		})
	}
}

// TestAsyncMapSoakCrashPreCommit crashes after the drain's flush completed
// but before the epoch counter persisted: every cut line is durable, yet the
// checkpoint never committed, so recovery must still fall back.
func TestAsyncMapSoakCrashPreCommit(t *testing.T) {
	r := asyncMapSoak(mapCfg.Interval)
	r.CrashAfter = nil
	r.CrashDrain = 2
	r.PreCommit = true
	r.DrainDelay = r.Interval
	soak(t, r, soakSeeds(4), drainInterrupted)
}

// TestAsyncMapSoakRandomCrash is the plain map property under async flush: a
// crash at an arbitrary point — inside or outside drain windows — always
// recovers to the last durably committed checkpoint's snapshot.
func TestAsyncMapSoakRandomCrash(t *testing.T) {
	soak(t, asyncMapSoak(mapCfg.Interval), soakSeeds(8), nil)
}

// TestAsyncMapSoakSlowDrains stretches every drain across a third of a
// checkpoint interval with no targeted crash: checkpoints queue up behind
// in-flight drains, collisions become routine, and the random crash often
// lands inside a window.
func TestAsyncMapSoakSlowDrains(t *testing.T) {
	r := asyncMapSoak(6 * time.Millisecond)
	r.DrainDelay = 2 * time.Millisecond
	soak(t, r, soakSeeds(4), nil)
}

// TestShardedKVSoakStaggered validates buffered durable linearizability of
// the sharded store per shard with staggered checkpoints: each shard's
// recovered state must equal the snapshot its own last completed checkpoint
// certified, even though shards certify at different moments, and every
// recovered key must route to the shard it was recovered on.
func TestShardedKVSoakStaggered(t *testing.T) {
	r := Soak[*Pool]{
		New: func(seed int64) (*Pool, error) {
			return NewPool(shard.Config{Shards: 3, Workers: 2, Buckets: 1 << 9, HeapBytes: 16 << 20,
				Interval: 3 * time.Millisecond, Chaos: true, Seed: seed})
		},
		Threads: 2,
		Op: func(s *Pool, th, _ int, rng *rand.Rand) {
			key := fmt.Sprintf("user%06d", rng.Intn(400))
			switch rng.Intn(5) {
			case 0:
				s.Store.Delete(th, key)
			case 1:
				s.Store.Get(th, key)
			default:
				s.Store.Set(th, key, []byte(fmt.Sprintf("v%d-%d", th, rng.Intn(1000))))
			}
		},
		EvictRate:  16,
		CrashAfter: crashAfter(7, 3, 4*time.Millisecond),
	}
	soak(t, r, soakSeeds(3), func(t *testing.T, rep *SoakReport) {
		opsRan(t, rep)
		if len(rep.FailedEpochs) != 3 {
			t.Fatalf("%d failed epochs for 3 shards", len(rep.FailedEpochs))
		}
	})
}

// TestKVStoreSoak validates buffered durable linearizability end to end at
// the key-value layer: concurrent string-keyed sets and deletes over the
// RespctStore on a chaos-mode heap.
func TestKVStoreSoak(t *testing.T) {
	r := Soak[*KV]{
		New: func(seed int64) (*KV, error) {
			return NewKV(chaosEnv(seed, 4, 256<<20), kv.StoreOptions{Buckets: 1024})
		},
		Threads: 4,
		Op: func(s *KV, th, _ int, rng *rand.Rand) {
			key := fmt.Sprintf("user%06d", rng.Intn(2000))
			if rng.Intn(4) == 0 {
				s.St.Delete(th, key)
			} else {
				s.St.Set(th, key, []byte(fmt.Sprintf("v%d-%d", th, rng.Intn(1000))))
			}
			s.St.PerOp(th)
		},
		Interval:   4 * time.Millisecond,
		EvictRate:  32,
		CrashAfter: crashAfter(5, 2, 3*time.Millisecond),
	}
	soak(t, r, soakSeeds(4), nil)
}

// structOp issues one operation of the structures mix: ordered-index churn
// behind SCAN, the TTL lifecycle, a shared queue and a shared log.
func structOp(st interface {
	kv.Store
	kv.StructOps
}, th int, rng *rand.Rand, key string, now uint64, ttl, scan int) {
	switch rng.Intn(10) {
	case 0:
		st.Delete(th, key)
	case 1:
		st.Expire(th, key, now+uint64(rng.Intn(ttl)))
	case 2:
		st.Scan(th, key, "", scan)
	case 3:
		st.QPush(th, "jobs", []byte(fmt.Sprintf("j%d-%d", th, rng.Intn(1000))))
	case 4:
		st.QPop(th, "jobs")
	case 5:
		st.LAppend(th, "events", []byte(fmt.Sprintf("e%d-%d", th, rng.Intn(1000))))
	case 6:
		st.TTL(th, key)
	default:
		st.Set(th, key, []byte(fmt.Sprintf("v%d-%d", th, rng.Intn(1000))))
	}
}

// TestKVStructSoak extends the KV soak to the full multi-model surface: a
// dedicated sweeper thread runs the expiry sweep inside every checkpoint cut
// (shard.Pool's schedule), and the whole logical state — entries with
// deadlines plus the ordered-index, queue and log pseudo-keys — must recover
// to its certified cut with the two indexes agreeing.
func TestKVStructSoak(t *testing.T) {
	const workers = 4
	const sweeper = workers // dedicated thread slot, like shard.Pool
	r := Soak[*KV]{
		New: func(seed int64) (*KV, error) {
			return NewKV(chaosEnv(seed, workers+1, 256<<20), kv.StoreOptions{Buckets: 1024, Structures: true})
		},
		Threads: workers,
		Op: func(s *KV, th, _ int, rng *rand.Rand) {
			structOp(s.St, th, rng, fmt.Sprintf("user%05d", rng.Intn(1500)), s.Clock.Load(), 40, 8)
			s.St.PerOp(th)
		},
		Interval: 4 * time.Millisecond,
		Tick: func(s *KV) {
			// Advance time, sweep inside the epoch about to be cut, then
			// checkpoint.
			now := s.Clock.Add(7)
			tsw := s.RT.Thread(sweeper)
			tsw.CheckpointPrevent(nil)
			s.St.SweepExpired(sweeper, now)
			s.St.PerOp(sweeper)
			tsw.CheckpointAllow()
			s.RT.Checkpoint()
		},
		EvictRate:  32,
		CrashAfter: crashAfter(5, 2, 3*time.Millisecond),
	}
	soak(t, r, soakSeeds(4), nil)
}

// TestShardStructSoak is the sharded variant: a structures pool under its
// staggered checkpoint schedule (which sweeps each shard inside its cut),
// with the driver's ticker advancing the clock 13 ms every millisecond.
func TestShardStructSoak(t *testing.T) {
	r := Soak[*Pool]{
		New: func(seed int64) (*Pool, error) {
			return NewPool(shard.Config{Shards: 3, Workers: 2, Buckets: 1 << 9, HeapBytes: 16 << 20,
				Interval: 3 * time.Millisecond, Chaos: true, Seed: seed, Structures: true})
		},
		Threads: 2,
		Op: func(s *Pool, th, _ int, rng *rand.Rand) {
			structOp(s.Store, th, rng, fmt.Sprintf("user%05d", rng.Intn(400)), s.Clock.Load(), 30, 6)
		},
		Interval:   time.Millisecond,
		Tick:       func(s *Pool) { s.Clock.Add(13) },
		EvictRate:  16,
		CrashAfter: crashAfter(5, 2, 4*time.Millisecond),
	}
	soak(t, r, soakSeeds(2), nil)
}

// TestSkipListSoak: the sorted map under chaos eviction; recovered contents
// must equal the certified snapshot, in order.
func TestSkipListSoak(t *testing.T) {
	r := Soak[*SkipList]{
		New:     func(seed int64) (*SkipList, error) { return NewSkipList(chaosEnv(seed, 4, 256<<20)) },
		Threads: 4,
		Op: func(s *SkipList, th, _ int, rng *rand.Rand) {
			k := uint64(rng.Intn(4096)) + 1
			switch rng.Intn(3) {
			case 0:
				s.L.Insert(th, k, k*3)
			case 1:
				s.L.Remove(th, k)
			default:
				s.L.Get(th, k)
			}
			s.L.PerOp(th)
		},
		Interval:   4 * time.Millisecond,
		EvictRate:  32,
		CrashAfter: crashAfter(4, 2, 3*time.Millisecond),
	}
	soak(t, r, soakSeeds(4), nil)
}

// TestLogSoak: concurrent appends to the append-only log; every recovered
// record must be intact and the count must be the certified one.
func TestLogSoak(t *testing.T) {
	r := Soak[*Log]{
		New:     func(seed int64) (*Log, error) { return NewLog(chaosEnv(seed, 4, 256<<20)) },
		Threads: 4,
		Op: func(s *Log, th, i int, _ *rand.Rand) {
			s.L.Append(th, []byte(fmt.Sprintf("w%d-%06d-payload", th, i)))
			s.L.PerOp(th)
		},
		Interval:   4 * time.Millisecond,
		EvictRate:  32,
		CrashAfter: crashAfter(4, 2, 3*time.Millisecond),
	}
	soak(t, r, soakSeeds(4), nil)
}

func eadrEnv(heapBytes int64, threads, recovery int) Env {
	return Env{
		Heap:     pmem.EADRConfig(heapBytes),
		Core:     core.Config{Threads: threads, SkipFlush: true},
		Recovery: recovery,
	}
}

// TestEADRSkipFlushRecovers exercises the §6 extension: on an eADR platform
// (caches in the persistence domain) ResPCT can run with SkipFlush —
// checkpoints only advance the epoch — because every store is already
// durable in order. Recovery still rolls the crashed epoch back via InCLL,
// so buffered durable linearizability is preserved without a single
// explicit flush of the data.
func TestEADRSkipFlushRecovers(t *testing.T) {
	s, err := NewMap(eadrEnv(64<<20, 1, 1), 256)
	if err != nil {
		t.Fatal(err)
	}
	c := Certify(s)
	for k := uint64(1); k <= 100; k++ {
		s.M.Insert(0, k, k+7)
	}
	s.RT.CheckpointIdle()

	// Doomed epoch: partial state sits in the "caches", which the eADR
	// battery flushes at crash time — recovery must still undo it.
	for k := uint64(1); k <= 50; k++ {
		s.M.Insert(0, k, 9999)
	}
	for k := uint64(200); k <= 230; k++ {
		s.M.Insert(0, k, k)
	}
	s.RT.Heap().Crash()

	recs, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].CellsRolledBack == 0 {
		t.Fatal("eADR crash persisted the whole doomed epoch but nothing was rolled back")
	}
	if len(recs[0].State) != 100 {
		t.Fatalf("recovered %d keys, want 100", len(recs[0].State))
	}
}

// TestEADRSoak runs the full multi-threaded soak on an eADR heap with
// SkipFlush — the strongest form of the extension — crashing right after
// the 20th checkpoint. Seed 101, otherwise only a vacuous-run retry, is
// listed so that it runs on every pass, not only when seed 1 certifies
// nothing.
func TestEADRSoak(t *testing.T) {
	r := Soak[*Map]{
		New:     func(int64) (*Map, error) { return NewMap(eadrEnv(128<<20, 4, 2), 512) },
		Threads: 4,
		Op: func(s *Map, th, _ int, rng *rand.Rand) {
			k := uint64(rng.Intn(2048)) + 1
			if rng.Intn(2) == 0 {
				s.M.Insert(th, k, k)
			} else {
				s.M.Remove(th, k)
			}
			s.M.PerOp(th)
		},
		Interval:   2 * time.Millisecond,
		CrashTicks: 20,
	}
	soak(t, r, []int64{1, 101}, nil)
}

// A row whose every run crashes before its first periodic checkpoint only
// ever compares the empty state with the empty state; the driver must fail
// it rather than pass it.
func TestVacuousSoakFails(t *testing.T) {
	cfg := mapCfg
	cfg.HeapBytes = 16 << 20
	cfg.Interval = time.Hour
	r := MapSoak(cfg)
	r.CrashAfter = func(int64) time.Duration { return time.Millisecond }
	runs := 0
	err := r.RunSeeds([]int64{1, 2}, func(seed int64, run func() (*SoakReport, error)) {
		runs++
		if rep, err := run(); err != nil {
			t.Fatalf("seed %d: %v (report %+v)", seed, err, rep)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "vacuous") {
		t.Fatalf("RunSeeds = %v, want a vacuous-soak failure", err)
	}
	if runs != 6 {
		t.Errorf("%d runs, want the 2 seeds plus 4 longer retries", runs)
	}
}

func TestWARViolationIsObservable(t *testing.T) {
	// The deliberately mis-instrumented counter (WAR without InCLL) must
	// recover to a non-checkpointed value — demonstrating that the §3.3.2
	// logging rule is load-bearing, and that our checker can see it.
	detected, err := WARViolationDetected()
	if err != nil {
		t.Fatal(err)
	}
	if !detected {
		t.Fatal("WAR violation went undetected — the experiment lost its teeth")
	}
}
