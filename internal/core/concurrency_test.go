package core

import (
	"sync"
	"testing"
	"time"

	"github.com/respct/respct/internal/pmem"
)

func TestCheckpointWaitsForAllThreads(t *testing.T) {
	rt := newTestRuntime(t, 4, 0)
	const opsPerThread = 200

	var wg sync.WaitGroup
	cells := make([]InCLL, 4)
	for i := 0; i < 4; i++ {
		th := rt.Thread(i)
		p := rt.Arena().AllocCells(th, 1)
		cells[i] = Cell(p, 0)
		th.Init(cells[i], 0)
	}

	done := make(chan struct{})
	go func() {
		// Fire checkpoints continuously while workers run.
		for {
			select {
			case <-done:
				return
			default:
				rt.Checkpoint()
			}
		}
	}()

	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := rt.Thread(i)
			for op := 0; op < opsPerThread; op++ {
				th.Update(cells[i], uint64(op+1))
				th.RP(uint64(i*1000 + op))
			}
			th.CheckpointAllow()
		}(i)
	}
	wg.Wait()
	close(done)
	// Give the checkpoint goroutine a chance to finish its last iteration.
	rt.ckptMu.Lock()
	rt.ckptMu.Unlock()

	for i := 0; i < 4; i++ {
		if got := rt.Read(cells[i]); got != opsPerThread {
			t.Fatalf("thread %d cell = %d, want %d", i, got, opsPerThread)
		}
	}
	if rt.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoint completed")
	}
}

func TestRPParksDuringCheckpoint(t *testing.T) {
	rt := newTestRuntime(t, 2, 0)
	t1 := rt.Thread(1)
	t1.CheckpointAllow() // thread 1 is "blocked elsewhere"

	started := make(chan struct{})
	released := make(chan struct{})
	go func() {
		th := rt.Thread(0)
		close(started)
		th.RP(1) // no checkpoint pending yet: must not block
		// Trigger our own visibility of the parked state:
		for !rt.timer.Load() {
			time.Sleep(time.Millisecond)
		}
		th.RP(2) // parks until the checkpoint finishes
		close(released)
	}()
	<-started
	rt.Checkpoint()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never released from RP after checkpoint")
	}
	if got := rt.Read(rt.Thread(0).RPID()); got != 2 {
		t.Fatalf("persistent RP id = %d, want 2", got)
	}
}

func TestCondVarProtocolNoDeadlock(t *testing.T) {
	// A consumer waits on a condition variable; a producer signals it. A
	// checkpoint fires while the consumer is blocked. Without the Fig. 7
	// allow/prevent protocol this deadlocks; with it, everything finishes.
	rt := newTestRuntime(t, 2, 0)
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	queue := 0

	cons := rt.Thread(0)
	prod := rt.Thread(1)
	p := rt.Arena().AllocCells(cons, 1)
	consumed := Cell(p, 0)
	cons.Init(consumed, 0)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // consumer
		defer wg.Done()
		for got := 0; got < 3; {
			cons.RP(10) // RP immediately before the critical section (Fig. 7)
			mu.Lock()
			for queue == 0 {
				cons.CondWait(cond, &mu)
			}
			queue--
			got++
			cons.Update(consumed, uint64(got))
			mu.Unlock()
		}
		cons.CheckpointAllow()
	}()
	go func() { // producer
		defer wg.Done()
		for i := 0; i < 3; i++ {
			prod.RP(20)
			mu.Lock()
			queue++
			mu.Unlock()
			cond.Signal()
			// Force a checkpoint between productions so some land while
			// the consumer is parked in cond_wait. The producer drives the
			// checkpoint itself, so it must open its own allow window (a
			// worker can never be gated on itself).
			prod.CheckpointAllow()
			rt.Checkpoint()
			prod.CheckpointPrevent(nil)
		}
		prod.CheckpointAllow()
	}()

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("condition-variable protocol deadlocked")
	}
	if got := rt.Read(consumed); got != 3 {
		t.Fatalf("consumed = %d, want 3", got)
	}
}

func TestCheckpointerPeriodic(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	p := rt.Arena().AllocCells(th, 1)
	v := Cell(p, 0)
	th.Init(v, 0)

	ck := rt.StartCheckpointer(5 * time.Millisecond)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := uint64(0)
		for {
			select {
			case <-stop:
				th.CheckpointAllow()
				return
			default:
			}
			i++
			th.Update(v, i)
			th.RP(1)
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	ck.Stop()

	s := rt.Stats()
	if s.Checkpoints < 3 {
		t.Fatalf("only %d checkpoints in 100ms at 5ms period", s.Checkpoints)
	}
	if ep := ck.EffectivePeriod(); ep < 4*time.Millisecond {
		t.Fatalf("effective period %v below interval", ep)
	}
	// The last completed checkpoint's value is durable.
	if got := rt.Heap().LoadPersistent64(v.Addr()); got == 0 {
		t.Fatal("no value ever persisted")
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	rt := newTestRuntime(t, 4, 32<<20)
	var wg sync.WaitGroup
	stopCk := make(chan struct{})
	var ckWg sync.WaitGroup
	ckWg.Add(1)
	go func() {
		defer ckWg.Done()
		for {
			select {
			case <-stopCk:
				return
			default:
				rt.Checkpoint()
			}
		}
	}()

	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := rt.Thread(i)
			live := make([]pmem.Addr, 0, 16)
			for op := 0; op < 300; op++ {
				if len(live) > 8 {
					rt.Arena().Free(th, live[0])
					live = live[1:]
				}
				p := rt.Arena().AllocCells(th, 1)
				if p == pmem.NilAddr {
					t.Error("heap exhausted")
					break
				}
				th.Init(Cell(p, 0), uint64(op))
				live = append(live, p)
				th.RP(uint64(op))
			}
			th.CheckpointAllow()
		}(i)
	}
	wg.Wait()
	close(stopCk)
	ckWg.Wait()

	st := rt.Arena().Stats()
	if st.Allocs < 1200 {
		t.Fatalf("allocs = %d", st.Allocs)
	}
	if st.Frees == 0 {
		t.Fatal("no frees recorded")
	}
}

// TestCheckpointerMaxPauseAllTime: a long first checkpoint stays the
// driver's MaxPause however many short ones follow it (a driver that kept
// only its last 256 records lost it).
func TestCheckpointerMaxPauseAllTime(t *testing.T) {
	const long, short = 30 * time.Millisecond, 300
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	// Thread 0 starts outside any allow window, so the first checkpoint
	// waits at the gate until it opens one.
	ck := rt.StartCheckpointer(50 * time.Microsecond)
	defer ck.Stop()
	time.Sleep(long)
	th.CheckpointAllow()
	for deadline := time.Now().Add(30 * time.Second); rt.Stats().Checkpoints <= short; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d checkpoints in 30s", rt.Stats().Checkpoints)
		}
		time.Sleep(time.Millisecond)
	}
	ck.Stop()
	if got := ck.MaxPause(); got < long/2 {
		t.Fatalf("MaxPause %v after %d checkpoints, want the first one's (about %v)",
			got, rt.Stats().Checkpoints, long)
	}
}

// TestCheckpointerStop: Stop may be called twice, and a zero interval
// starts no driver — a nil Checkpointer whose methods all work.
func TestCheckpointerStop(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	rt.Thread(0).CheckpointAllow()
	ck := rt.StartCheckpointer(time.Millisecond)
	ck.Stop()
	ck.Stop()

	idle := StartCheckpointer(0, func() CheckpointInfo { panic("ticked") })
	if idle != nil {
		t.Fatal("a zero interval started a driver")
	}
	idle.Stop()
	if idle.MaxPause() != 0 || idle.EffectivePeriod() != 0 {
		t.Fatalf("idle driver: max pause %v, period %v", idle.MaxPause(), idle.EffectivePeriod())
	}
}
