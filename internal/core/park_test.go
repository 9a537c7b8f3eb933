//go:build unix

package core

import (
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

// processCPU is the CPU time (user + system) this process has consumed.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestParkedThreadsBlock holds a checkpoint open for 50 ms while ten threads
// wait it out — eight in CheckpointPrevent(nil), one in CheckpointPrevent(mu),
// one in RP — and requires that they wait without burning the CPUs the flush
// needs: the process may use at most a fifth of its Ps over the hold (threads
// that poll the timer use all of them). It also checks what blocking must not
// break: mu is free during the hold, every thread resumes with its epoch
// cache refreshed, and a second checkpoint started the moment the first
// returns — while some threads are still waking up from the first release —
// completes and releases them too.
func TestParkedThreadsBlock(t *testing.T) {
	const (
		nThreads = 10
		muThread = 8 // waits in CheckpointPrevent(mu)
		rpThread = 9 // waits in RP
		hold     = 50 * time.Millisecond
	)
	rt := newTestRuntime(t, nThreads, 0)
	first := rt.Epoch()

	var mu sync.Mutex
	var entering, done sync.WaitGroup
	resumedAt := make([]uint64, nThreads)
	entering.Add(nThreads)
	done.Add(nThreads)
	for i := 0; i < nThreads; i++ {
		th := rt.Thread(i)
		if i != rpThread {
			th.CheckpointAllow() // blocked elsewhere when the checkpoint starts
		}
		go func() {
			defer done.Done()
			for !rt.timer.Load() {
				time.Sleep(100 * time.Microsecond)
			}
			switch th.id {
			case rpThread:
				// The one running thread: the gate waits for it, so the hook
				// below runs only once it is parked here.
				entering.Done()
				th.RP(7)
			case muThread:
				mu.Lock()
				entering.Done()
				th.CheckpointPrevent(&mu)
				mu.Unlock()
			default:
				entering.Done()
				th.CheckpointPrevent(nil)
			}
			resumedAt[th.id] = th.epochCached
			th.CheckpointAllow() // goroutine exit
		}()
	}

	var used time.Duration
	muFree := false
	rt.SetQuiescedHook(func(uint64) {
		entering.Wait()
		time.Sleep(5 * time.Millisecond) // everyone is past the bounded spin
		before := processCPU(t)
		time.Sleep(hold)
		used = processCPU(t) - before
		for deadline := time.Now().Add(2 * time.Second); !muFree && time.Now().Before(deadline); {
			if muFree = mu.TryLock(); muFree {
				mu.Unlock()
			}
		}
	})
	rt.Checkpoint()
	rt.SetQuiescedHook(nil)
	rt.Checkpoint() // immediately behind the first: late wakers are still parked

	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("threads stranded after two back-to-back checkpoints")
	}

	budget := hold * time.Duration(runtime.GOMAXPROCS(0)) / 5
	t.Logf("process CPU over the %v hold: %v (budget %v)", hold, used, budget)
	if used > budget {
		t.Errorf("process used %v of CPU while %d threads waited out a %v checkpoint, want at most %v (0.2 × GOMAXPROCS × hold)",
			used, nThreads, hold, budget)
	}
	if !muFree {
		t.Error("the mutex handed to CheckpointPrevent was not free during the checkpoint")
	}
	for i, e := range resumedAt {
		// A thread resumes after the first checkpoint or, if it woke late,
		// after the second; either way its cache is the epoch it runs in.
		if e != first+1 && e != first+2 {
			t.Errorf("thread %d resumed with cached epoch %d, want %d or %d", i, e, first+1, first+2)
		}
	}
	if got := rt.Epoch(); got != first+2 {
		t.Fatalf("epoch = %d after two checkpoints, want %d", got, first+2)
	}
}
