package pmem

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Evictor is a background "chaos monkey" that writes dirty cache lines back
// to the persistent image at random moments, simulating the hardware's
// unknown cache replacement policy. It is the mechanism that creates the
// partial-update hazard checkpointing systems must tolerate: during an
// epoch, an arbitrary subset of the modifications may already be in NVMM.
//
// The heap should be in Chaos mode so that write-backs are atomic with
// respect to concurrent stores; Start panics otherwise.
type Evictor struct {
	h       *Heap
	rate    int // lines probed per round
	stop    chan struct{}
	done    sync.WaitGroup
	started atomic.Bool
}

// NewEvictor creates an evictor probing `rate` random lines per scheduling
// round. Higher rates push more partial state into the persistent image.
// The lines are drawn from the heap's RNG, so the heap's Config.Seed is the
// eviction seed (a shard pool seeds shard i's heap with
// shard.Config.Seed + i*101).
func NewEvictor(h *Heap, rate int) *Evictor {
	if rate <= 0 {
		rate = 8
	}
	return &Evictor{h: h, rate: rate, stop: make(chan struct{})}
}

// Start launches the background eviction goroutine.
func (e *Evictor) Start() {
	if !e.h.cfg.Chaos {
		panic("pmem: Evictor requires a Chaos-mode heap")
	}
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	e.done.Add(1)
	go func() {
		defer e.done.Done()
		for {
			select {
			case <-e.stop:
				return
			default:
			}
			if e.h.Crashed() {
				return
			}
			e.h.EvictRandom(e.rate)
			runtime.Gosched()
		}
	}()
}

// Stop terminates the eviction goroutine and waits for it.
func (e *Evictor) Stop() {
	if !e.started.Load() {
		return
	}
	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
	e.done.Wait()
}

// EvictDirtyFraction synchronously writes back approximately frac of the
// currently dirty lines, chosen pseudo-randomly with the given seed. Crash
// tests use it to construct a partial NVMM image deterministically.
func (h *Heap) EvictDirtyFraction(frac float64, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	evicted := 0
	for line := 0; line < h.nLines; line++ {
		if atomic.LoadUint32(&h.dirty[line]) == 0 {
			continue
		}
		if rng.Float64() < frac {
			if h.EvictLine(line) {
				evicted++
			}
		}
	}
	return evicted
}
