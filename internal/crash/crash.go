//respct:exportdoc

// Package crash validates the paper's correctness claims (§4): after a crash
// at any point, recovery must reproduce the logical state certified at the
// last completed checkpoint (buffered durable linearizability).
//
// Every check is split three ways. A Subject is the system under test — a
// map, queue, skiplist, log, KV store or shard pool — with its logical State
// and how it reopens after recovery. A driver runs it: Soak runs concurrent
// workers, a checkpoint ticker and a chaos evictor on randomly evicting
// heaps and crashes after a delay or inside a chosen drain; Script runs one
// deterministic goroutine with inline checkpoints for the crash-point
// explorer (internal/crashexplore). And one Checker certifies the state at
// every checkpoint, recovers, and compares. A new crash workload is a row:
// a subject plus a driver's settings.
//
// WARViolationDetected shows the property failing when the programming
// rules are deliberately violated.
package crash

import (
	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
)

// WARViolationDetected demonstrates rule (ii) of §3.3.2: persistent data
// with a write-after-read dependency that skips InCLL can recover to a state
// that never existed. It runs a counter incremented with plain tracked
// stores (read + write, no undo log), crashes after some post-checkpoint
// increments with the update already evicted to NVMM, recovers, and reports
// whether the recovered value differs from the checkpointed one — which a
// correctly logged counter never does. The demonstration is deterministic:
// the eviction writes every dirty line back.
func WARViolationDetected() (bool, error) {
	h := pmem.New(pmem.Config{Size: 16 << 20, Chaos: true, Seed: 7})
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
