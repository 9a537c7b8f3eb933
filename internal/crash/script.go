package crash

import (
	"math/rand"

	"github.com/respct/respct/internal/core"
)

// Script is a row of the deterministic driver the crash-point explorer
// uses: one goroutine runs Batches batches of operations from one seeded
// RNG and checkpoints inline after each, so the persistence trace is the
// same byte for byte on every run. The crash comes from outside (a
// pmem.Recorder crashing every heap at a trace position); the script must
// still run to completion after it.
type Script[S Subject] struct {
	Seed    int64 // the operation RNG's seed
	Batches int   // batches, each ended by a Cut

	// Batch issues batch b's operations.
	Batch func(s S, rng *rand.Rand, b int) error

	// Cut ends batch b with a checkpoint (nil: Inline on runtime 0).
	Cut func(s S, b int) error

	// Collide, when set, parks every background drain of runtime 0 (an
	// asynchronous runtime) before it flushes anything and issues these
	// operations inside the drain window right after the cut, so
	// collision-log appends and collision flushes land at fixed trace
	// positions.
	Collide func(s S, rng *rand.Rand, b int) error
}

// Run drives s through the script.
func (sc Script[S]) Run(s S) error {
	rt := s.Runtimes()[0]
	rng := rand.New(rand.NewSource(sc.Seed))
	var gate chan struct{}
	if sc.Collide != nil {
		rt.SetDrainHook(func(_ uint64, preCommit bool) {
			if !preCommit {
				<-gate
			}
		})
	}
	for b := 0; b < sc.Batches; b++ {
		if err := sc.Batch(s, rng, b); err != nil {
			return err
		}
		gate = make(chan struct{})
		if sc.Cut != nil {
			if err := sc.Cut(s, b); err != nil {
				return err
			}
		} else {
			Inline(rt)
		}
		if sc.Collide != nil {
			if err := sc.Collide(s, rng, b); err != nil {
				return err
			}
			close(gate)
			rt.WaitDrain()
		}
	}
	return nil
}

// Inline checkpoints rt from its only worker, thread 0, between two of its
// operations.
func Inline(rt *core.Runtime) {
	t := rt.Thread(0)
	t.CheckpointAllow()
	rt.Checkpoint()
	t.CheckpointPrevent(nil)
}
