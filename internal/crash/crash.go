//respct:exportdoc

// Package crash validates the paper's correctness claims (§4) empirically:
// it runs multi-threaded workloads on a Chaos-mode heap — random cache-line
// evictions pushing partial state into NVMM at arbitrary moments — kills the
// machine at a random point, recovers, and checks that the recovered state
// equals the logical snapshot certified at the last completed checkpoint
// (buffered durable linearizability), or detects the absence of that
// property when the programming rules are deliberately violated.
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

// MapSoakConfig parameterises one map crash soak.
type MapSoakConfig struct {
	Threads      int           // concurrent worker goroutines
	Buckets      int           // RespctMap bucket count
	KeySpace     uint64        // distinct keys the workers hammer
	OpsPerThread int           // ops each worker performs before the crash fires
	EvictRate    int           // evictor probe rate
	Interval     time.Duration // checkpoint period
	Seed         int64         // workload and chaos RNG seed
	HeapBytes    int64         // heap size (0 = default)
}

// SoakReport describes one soak run.
type SoakReport struct {
	Checkpoints    uint64 // checkpoints completed before the crash
	CertifiedKeys  int    // keys in the snapshot certified at the last completed checkpoint
	RecoveredKeys  int    // keys in the recovered map
	FailedEpoch    uint64 // epoch the recovery pass reported as interrupted
	OpsBeforeCrash uint64 // worker ops completed when the crash fired
}

// MapSoak runs concurrent workers over a RespctMap with a periodic
// checkpointer and a chaos evictor, crashes mid-run, recovers, and compares
// the recovered map against the snapshot certified by the last completed
// checkpoint. Returns an error describing the first divergence.
func MapSoak(cfg MapSoakConfig) (*SoakReport, error) {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 256 << 20
	}
	h := pmem.New(pmem.Config{Size: cfg.HeapBytes, Chaos: true, Seed: cfg.Seed})
	rt, err := core.NewRuntime(h, core.Config{Threads: cfg.Threads})
	if err != nil {
		return nil, err
	}
	m, err := structures.NewRespctMap(rt, 0, cfg.Buckets)
	if err != nil {
		return nil, err
	}

	// Certify a logical snapshot at every checkpoint, keyed by the epoch
	// the checkpoint closes. The hook runs while every worker is parked,
	// before the flush: the state it sees is exactly what that checkpoint
	// makes durable. After the crash, the recovered state must equal the
	// snapshot of the checkpoint that started the failed epoch — i.e.
	// snaps[failedEpoch-1] — regardless of where inside a checkpoint the
	// crash landed.
	var certMu sync.Mutex
	snaps := map[uint64]map[uint64]uint64{}
	rt.SetQuiescedHook(func(ending uint64) {
		snap := m.Snapshot()
		certMu.Lock()
		snaps[ending] = snap
		certMu.Unlock()
	})
	// Make the structure's creation durable before the workload begins:
	// without this a crash before the first periodic checkpoint would
	// (correctly) lose the structure itself.
	for i := 0; i < cfg.Threads; i++ {
		rt.Thread(i).CheckpointAllow()
	}
	rt.Checkpoint()
	for i := 0; i < cfg.Threads; i++ {
		rt.Thread(i).CheckpointPrevent(nil)
	}

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

	// Crash at a random point while work is in flight.
	crashDelay := time.Duration(cfg.Seed%7+2) * cfg.Interval / 2
	time.Sleep(crashDelay)
	h.Crash()
	stop.Store(true)
	wg.Wait()
	ev.Stop()
	close(ckStop)
	ckWg.Wait()

	ckCount := rt.Stats().Checkpoints

	rt2, rep, err := core.Recover(h, core.Config{Threads: cfg.Threads}, 4)
	if err != nil {
		return nil, err
	}
	certMu.Lock()
	want := snaps[rep.FailedEpoch-1] // nil (empty) if no checkpoint completed
	certMu.Unlock()
	m2, err := structures.OpenRespctMap(rt2, 0)
	if err != nil {
		return nil, err
	}
	got := m2.Snapshot()

	report := &SoakReport{
		Checkpoints:    ckCount,
		CertifiedKeys:  len(want),
		RecoveredKeys:  len(got),
		FailedEpoch:    rep.FailedEpoch,
		OpsBeforeCrash: ops.Load(),
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

// QueueSoak is the FIFO analogue of MapSoak.
func QueueSoak(cfg MapSoakConfig) (*SoakReport, error) {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 256 << 20
	}
	h := pmem.New(pmem.Config{Size: cfg.HeapBytes, Chaos: true, Seed: cfg.Seed})
	rt, err := core.NewRuntime(h, core.Config{Threads: cfg.Threads})
	if err != nil {
		return nil, err
	}
	q, err := structures.NewRespctQueue(rt, 0)
	if err != nil {
		return nil, err
	}

	var certMu sync.Mutex
	snaps := map[uint64][]uint64{}
	rt.SetQuiescedHook(func(ending uint64) {
		snap := q.Snapshot()
		certMu.Lock()
		snaps[ending] = snap
		certMu.Unlock()
	})
	// Make the structure's creation durable before the workload begins:
	// without this a crash before the first periodic checkpoint would
	// (correctly) lose the structure itself.
	for i := 0; i < cfg.Threads; i++ {
		rt.Thread(i).CheckpointAllow()
	}
	rt.Checkpoint()
	for i := 0; i < cfg.Threads; i++ {
		rt.Thread(i).CheckpointPrevent(nil)
	}

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
	var wg sync.WaitGroup
	for th := 0; th < cfg.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(th)*77))
			for i := 0; i < cfg.OpsPerThread && !stop.Load(); i++ {
				if rng.Intn(2) == 0 {
					q.Enqueue(th, uint64(th)<<32|uint64(i)+1)
				} else {
					q.Dequeue(th)
				}
				q.PerOp(th)
			}
			q.ThreadExit(th)
		}(th)
	}

	time.Sleep(time.Duration(cfg.Seed%5+2) * cfg.Interval / 2)
	h.Crash()
	stop.Store(true)
	wg.Wait()
	ev.Stop()
	close(ckStop)
	ckWg.Wait()

	rt2, rep, err := core.Recover(h, core.Config{Threads: cfg.Threads}, 4)
	if err != nil {
		return nil, err
	}
	certMu.Lock()
	want := snaps[rep.FailedEpoch-1]
	certMu.Unlock()
	q2, err := structures.OpenRespctQueue(rt2, 0)
	if err != nil {
		return nil, err
	}
	got := q2.Snapshot()
	report := &SoakReport{
		Checkpoints:   rt.Stats().Checkpoints,
		CertifiedKeys: len(want),
		RecoveredKeys: len(got),
		FailedEpoch:   rep.FailedEpoch,
	}
	if len(got) != len(want) {
		return report, fmt.Errorf("crash: recovered queue length %d, certified %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return report, fmt.Errorf("crash: element %d = %d, certified %d", i, got[i], want[i])
		}
	}
	return report, nil
}

// WARViolationDetected demonstrates rule (ii) of §3.3.2: persistent data
// with a write-after-read dependency that skips InCLL can recover to a state
// that never existed. It runs a counter incremented with plain tracked
// stores (read + write, no undo log), crashes after some post-checkpoint
// increments with the update already evicted to NVMM, recovers, and reports
// whether the recovered value differs from the checkpointed one — which a
// correctly logged counter never does.
func WARViolationDetected(seed int64) (bool, error) {
	h := pmem.New(pmem.Config{Size: 16 << 20, Chaos: true, Seed: seed})
	rt, err := core.NewRuntime(h, core.Config{Threads: 1})
	if err != nil {
		return false, err
	}
	t := rt.Thread(0)
	counter := rt.Arena().AllocRaw(t, 1)
	t.StoreTracked(counter, 0)
	t.CheckpointAllow()
	rt.Checkpoint()
	t.CheckpointPrevent(nil)
	checkpointed := h.Load64(counter)

	// Doomed epoch: WAR updates without InCLL (the violation).
	for i := 0; i < 10; i++ {
		t.StoreTracked(counter, h.Load64(counter)+1)
	}
	h.EvictAll() // hardware may write the dirty line back at any time
	h.Crash()

	rt2, _, err := core.Recover(h, core.Config{Threads: 1}, 1)
	if err != nil {
		return false, err
	}
	recovered := rt2.Heap().Load64(counter)
	// A correct recovery would restore `checkpointed`; the WAR violation
	// leaves the partially-persisted value in place.
	return recovered != checkpointed, nil
}
