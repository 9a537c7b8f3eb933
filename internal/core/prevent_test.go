package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// countingLocker counts Lock/Unlock calls around a real mutex so tests can
// observe CheckpointPrevent's hand-off of a condition variable's mutex.
type countingLocker struct {
	mu      sync.Mutex
	locks   atomic.Int32
	unlocks atomic.Int32
}

func (l *countingLocker) Lock()   { l.mu.Lock(); l.locks.Add(1) }
func (l *countingLocker) Unlock() { l.unlocks.Add(1); l.mu.Unlock() }

// TestCheckpointPreventHandsOffMutex drives the in-flight-checkpoint branch
// of CheckpointPrevent deterministically: with the timer raised, Prevent must
// re-allow the checkpoint, release the caller's mutex so parked threads that
// need it can make progress, wait until the workers are released, and
// re-acquire the mutex exactly once.
func TestCheckpointPreventHandsOffMutex(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)

	cmu := &countingLocker{}
	cmu.Lock() // the mutex a condition wait would have re-acquired
	rt.timer.Store(true)

	handoff := make(chan struct{})
	go func() {
		defer close(handoff)
		// Wait for Prevent to release the mutex, then prove another thread
		// can take it while the worker waits out the checkpoint.
		for cmu.unlocks.Load() == 0 {
			runtime.Gosched()
		}
		cmu.Lock()
		if rt.parked.Load() != 1 {
			t.Error("worker not re-parked while waiting out the checkpoint")
		}
		cmu.Unlock()
		rt.releaseWorkers()
	}()

	th.CheckpointPrevent(cmu)
	<-handoff

	// Worker: 1 initial lock + 1 re-acquire; observer: 1 lock.
	if got := cmu.locks.Load(); got != 3 {
		t.Fatalf("lock count = %d, want 3", got)
	}
	if got := cmu.unlocks.Load(); got != 2 {
		t.Fatalf("unlock count = %d, want 2 (worker hand-off + observer)", got)
	}
	if got := rt.parked.Load(); got != 0 {
		t.Fatalf("parked count = %d after Prevent, want 0", got)
	}
	cmu.Unlock() // still held by the worker, as on the normal return path
}

// TestCondWaitHandsOffMutexDuringCheckpoint runs the same hand-off end to end:
// a worker in CondWait is woken while a real checkpoint is in flight (from the
// quiesced hook, so the timing is deterministic), and its CheckpointPrevent
// must release the cond's mutex before waiting the checkpoint out.
func TestCondWaitHandsOffMutexDuringCheckpoint(t *testing.T) {
	rt := newTestRuntime(t, 2, 0)
	th0, th1 := rt.Thread(0), rt.Thread(1)

	cmu := &countingLocker{}
	cond := sync.NewCond(cmu)
	woke := make(chan struct{})
	go func() {
		cmu.Lock() // lock 1
		th0.CondWait(cond, cmu)
		cmu.Unlock()
		close(woke)
	}()
	// Wait until the worker is inside cond.Wait (its CheckpointAllow parked it
	// and the mutex is free again).
	for rt.parked.Load() == 0 {
		runtime.Gosched()
	}
	cmu.Lock()
	cmu.Unlock()

	rt.SetQuiescedHook(func(uint64) {
		// Both threads are quiesced and the timer is up. Wake the waiter: it
		// re-acquires the free mutex, enters CheckpointPrevent, sees the
		// in-flight checkpoint and must hand the mutex back — unlock #3,
		// after cond.Wait's internal unlock and main's probe.
		cond.Signal()
		for cmu.unlocks.Load() < 3 {
			runtime.Gosched()
		}
		cmu.Lock() // provable only because Prevent released it
		cmu.Unlock()
	})

	th1.CheckpointAllow()
	rt.Checkpoint()
	th1.CheckpointPrevent(nil)
	<-woke

	// Worker: initial + cond.Wait re-acquire + Prevent re-acquire; hook: 1;
	// main's probe: 1.
	if got := cmu.locks.Load(); got != 5 {
		t.Fatalf("lock count = %d, want 5", got)
	}
	if got := rt.parked.Load(); got != 0 {
		t.Fatalf("parked count = %d, want 0", got)
	}
}
