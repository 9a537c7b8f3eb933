package crash

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// AsyncSoakConfig parameterises a crash soak against an asynchronous-flush
// runtime. The zero targeting fields give a random-timing crash like MapSoak;
// CrashDrain aims the crash inside a specific background drain window, the
// hardest region for recovery — workers have already resumed the next epoch
// while the cut's lines are still in flight to NVMM.
type AsyncSoakConfig struct {
	MapSoakConfig
	CrashDrain uint64        // crash during the k-th post-init drain (1-based); 0 = random timing
	PreCommit  bool          // with CrashDrain: crash after the flush, just before the epoch persists
	DrainDelay time.Duration // dwell at drain start so workers race the drain window
}

// AsyncSoakReport extends SoakReport with drain-specific observations.
type AsyncSoakReport struct {
	SoakReport
	Drains            uint64 // background drains entered before the crash
	DrainInterrupted  bool   // recovery found an uncommitted drain
	CollisionsLogged  uint64 // worker undo-log appends during drain windows
	CollisionsApplied int    // log entries recovery replayed
}

// AsyncMapSoak is MapSoak against an AsyncFlush runtime: concurrent workers
// over a RespctMap, periodic checkpoints whose flushes drain in the
// background, a chaos evictor pushing partial state into NVMM — then a crash,
// recovery, and comparison against the snapshot certified at the last
// *durably committed* checkpoint. With CrashDrain set, the kill lands inside
// the chosen drain window and recovery must fall back to the previous
// completed checkpoint.
func AsyncMapSoak(cfg AsyncSoakConfig) (*AsyncSoakReport, error) {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 256 << 20
	}
	h := pmem.New(pmem.Config{Size: cfg.HeapBytes, Chaos: true, Seed: cfg.Seed})
	rt, err := core.NewRuntime(h, core.Config{Threads: cfg.Threads, AsyncFlush: true})
	if err != nil {
		return nil, err
	}
	m, err := structures.NewRespctMap(rt, 0, cfg.Buckets)
	if err != nil {
		return nil, err
	}

	// As in MapSoak, certify a logical snapshot at every cut, keyed by the
	// epoch the checkpoint closes. Under async flush the cut's durability
	// commits only when its drain does, but the invariant is unchanged:
	// recovery rolls back to the last checkpoint whose epoch counter
	// persisted, so the recovered state must equal snaps[failedEpoch-1].
	var certMu sync.Mutex
	snaps := map[uint64]map[uint64]uint64{}
	rt.SetQuiescedHook(func(ending uint64) {
		snap := m.Snapshot()
		certMu.Lock()
		snaps[ending] = snap
		certMu.Unlock()
	})
	// Durable init checkpoint (counts as drain #0; CrashDrain is 1-based
	// over the drains entered after the hook below is installed).
	for i := 0; i < cfg.Threads; i++ {
		rt.Thread(i).CheckpointAllow()
	}
	rt.Checkpoint()
	for i := 0; i < cfg.Threads; i++ {
		rt.Thread(i).CheckpointPrevent(nil)
	}
	rt.WaitDrain()

	var drains atomic.Uint64
	var crashedDrain atomic.Uint64 // epoch of the drain the hook killed
	rt.SetDrainHook(func(ending uint64, preCommit bool) {
		if h.Crashed() {
			return
		}
		if !preCommit {
			n := drains.Add(1)
			if cfg.DrainDelay > 0 {
				// Dwell with workers running: epoch-N+1 updates collide
				// with the cut's pending lines while we hold the drain open.
				time.Sleep(cfg.DrainDelay)
			}
			if cfg.CrashDrain != 0 && n == cfg.CrashDrain && !cfg.PreCommit {
				crashedDrain.Store(ending)
				h.Crash()
			}
			return
		}
		if cfg.CrashDrain != 0 && drains.Load() == cfg.CrashDrain && cfg.PreCommit {
			crashedDrain.Store(ending)
			h.Crash()
		}
	})

	ckStop := make(chan struct{})
	var ckWg sync.WaitGroup
	ckWg.Add(1)
	go func() {
		defer ckWg.Done()
		tick := time.NewTicker(cfg.Interval)
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

	ev := pmem.NewEvictor(h, cfg.EvictRate)
	ev.Start()

	var stop atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for th := 0; th < cfg.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(th)*31))
			for i := 0; i < cfg.OpsPerThread && !stop.Load(); i++ {
				k := uint64(rng.Int63n(int64(cfg.KeySpace))) + 1
				switch rng.Intn(3) {
				case 0:
					m.Insert(th, k, k*2+uint64(th))
				case 1:
					m.Remove(th, k)
				default:
					m.Get(th, k)
				}
				m.PerOp(th)
				ops.Add(1)
			}
			m.ThreadExit(th)
		}(th)
	}

	if cfg.CrashDrain != 0 {
		// The drain hook pulls the trigger; wait for it (bounded, in case
		// the workload finishes before the k-th drain ever starts).
		deadline := time.Now().Add(time.Duration(cfg.CrashDrain+16) * cfg.Interval * 4)
		for !h.Crashed() && time.Now().Before(deadline) {
			time.Sleep(cfg.Interval / 4)
		}
		h.Crash() // no-op if the hook already fired
	} else {
		time.Sleep(time.Duration(cfg.Seed%7+2) * cfg.Interval / 2)
		h.Crash()
	}
	stop.Store(true)
	wg.Wait()
	ev.Stop()
	close(ckStop)
	ckWg.Wait()
	// Let any zombie drain goroutine finish before Recover reopens the
	// heap's volatile image underneath it.
	rt.WaitDrain()

	ckCount := rt.Stats().Checkpoints
	logged := rt.Stats().CollisionsLogged

	rt2, rep, err := core.Recover(h, core.Config{Threads: cfg.Threads, AsyncFlush: true}, 4)
	if err != nil {
		return nil, err
	}
	certMu.Lock()
	want := snaps[rep.FailedEpoch-1]
	certMu.Unlock()
	m2, err := structures.OpenRespctMap(rt2, 0)
	if err != nil {
		return nil, err
	}
	got := m2.Snapshot()

	report := &AsyncSoakReport{
		SoakReport: SoakReport{
			Checkpoints:    ckCount,
			CertifiedKeys:  len(want),
			RecoveredKeys:  len(got),
			FailedEpoch:    rep.FailedEpoch,
			OpsBeforeCrash: ops.Load(),
		},
		Drains:            drains.Load(),
		DrainInterrupted:  rep.DrainInterrupted,
		CollisionsLogged:  logged,
		CollisionsApplied: rep.CollisionsApplied,
	}
	if e := crashedDrain.Load(); e != 0 && rep.FailedEpoch != e {
		return report, fmt.Errorf("crash: killed inside the drain of epoch %d but recovery failed epoch %d", e, rep.FailedEpoch)
	}
	if len(got) != len(want) {
		return report, fmt.Errorf("crash: recovered %d keys, certified snapshot has %d", len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			return report, fmt.Errorf("crash: key %d recovered as %d,%v; certified %d", k, gv, ok, v)
		}
	}
	return report, nil
}
