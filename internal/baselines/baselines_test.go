// Package baselines_test drives every baseline system through a shared
// battery: functional map/queue semantics, concurrent soak, and — for the
// systems where the paper's consistency model makes it meaningful — crash
// recovery.
package baselines_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/respct/respct/internal/baselines/cow"
	"github.com/respct/respct/internal/baselines/dali"
	"github.com/respct/respct/internal/baselines/durable"
	"github.com/respct/respct/internal/baselines/friedman"
	"github.com/respct/respct/internal/baselines/shadow"
	"github.com/respct/respct/internal/baselines/soft"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// Heaps are sized to the tests' data — at most a few thousand operations,
// a few KiB of nodes — with room to spare: heapSize for the batteries and
// the shadow twins of shadowWords words, recoveryHeap for a single-system
// recovery test. Under the race detector every heap byte a test touches
// costs several times over in resident memory, and the package runs whole.
const (
	heapSize     = 4 << 20
	recoveryHeap = 1 << 20
	shadowWords  = 1 << 16
)

func allMaps(t *testing.T, threads int) map[string]structures.Map {
	t.Helper()
	mk := func() *pmem.Heap { return pmem.New(pmem.Config{Size: heapSize}) }
	return map[string]structures.Map{
		"undolog-full":    durable.NewMap(mk(), 64, threads, durable.UndoLog),
		"undolog-clobber": durable.NewMap(mk(), 64, threads, durable.Clobber),
		"redolog":         durable.NewMap(mk(), 64, threads, durable.RedoLog),
		"inclltm":         durable.NewMap(mk(), 64, threads, durable.InCLL),
		"shadow":          shadow.NewMap(shadow.NewHeap(mk(), shadowWords, threads, true), 64, 10*time.Millisecond),
		"cow":             cow.NewMap(mk(), 64, 10*time.Millisecond),
		"dali":            dali.NewMap(mk(), 64, threads, 10*time.Millisecond),
		"soft":            soft.NewMap(mk(), 64, threads),
	}
}

func allQueues(t *testing.T, threads int) map[string]structures.Queue {
	t.Helper()
	mk := func() *pmem.Heap { return pmem.New(pmem.Config{Size: heapSize}) }
	return map[string]structures.Queue{
		"undolog-full":    durable.NewQueue(mk(), threads, durable.UndoLog),
		"undolog-clobber": durable.NewQueue(mk(), threads, durable.Clobber),
		"inclltm":         durable.NewQueue(mk(), threads, durable.InCLL),
		"shadow":          shadow.NewQueue(shadow.NewHeap(mk(), shadowWords, threads, true), 10*time.Millisecond),
		"cow":             cow.NewQueue(mk(), 10*time.Millisecond),
		"friedman":        friedman.NewQueue(mk(), threads, 0),
	}
}

func TestBaselineMapsFunctional(t *testing.T) {
	for name, m := range allMaps(t, 1) {
		t.Run(name, func(t *testing.T) {
			defer m.Close()
			if _, ok := m.Get(0, 5); ok {
				t.Fatal("empty map hit")
			}
			if !m.Insert(0, 5, 50) {
				t.Fatal("insert new returned false")
			}
			if m.Insert(0, 5, 51) {
				t.Fatal("insert existing returned true")
			}
			if v, ok := m.Get(0, 5); !ok || v != 51 {
				t.Fatalf("Get = %d,%v", v, ok)
			}
			if !m.Remove(0, 5) {
				t.Fatal("remove failed")
			}
			if m.Remove(0, 5) {
				t.Fatal("double remove succeeded")
			}
			for k := uint64(1); k <= 300; k++ {
				m.Insert(0, k, k*7)
			}
			for k := uint64(1); k <= 300; k++ {
				if v, ok := m.Get(0, k); !ok || v != k*7 {
					t.Fatalf("key %d: %d,%v", k, v, ok)
				}
			}
			for k := uint64(2); k <= 300; k += 2 {
				if !m.Remove(0, k) {
					t.Fatalf("remove %d", k)
				}
			}
			for k := uint64(1); k <= 300; k++ {
				_, ok := m.Get(0, k)
				if want := k%2 == 1; ok != want {
					t.Fatalf("key %d present=%v", k, ok)
				}
			}
		})
	}
}

func TestBaselineQueuesFunctional(t *testing.T) {
	for name, q := range allQueues(t, 1) {
		t.Run(name, func(t *testing.T) {
			defer q.Close()
			if _, ok := q.Dequeue(0); ok {
				t.Fatal("empty queue hit")
			}
			for i := uint64(1); i <= 200; i++ {
				q.Enqueue(0, i)
			}
			for i := uint64(1); i <= 200; i++ {
				v, ok := q.Dequeue(0)
				if !ok || v != i {
					t.Fatalf("dequeue %d: got %d,%v", i, v, ok)
				}
			}
			if _, ok := q.Dequeue(0); ok {
				t.Fatal("drained queue hit")
			}
		})
	}
}

func TestBaselineMapsConcurrent(t *testing.T) {
	const threads = 4
	for name, m := range allMaps(t, threads) {
		t.Run(name, func(t *testing.T) {
			defer m.Close()
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(th + 1)))
					base := uint64(th)*100000 + 1
					for op := 0; op < 400; op++ {
						k := base + uint64(rng.Intn(200))
						switch rng.Intn(3) {
						case 0:
							m.Insert(th, k, k)
						case 1:
							m.Remove(th, k)
						default:
							if v, ok := m.Get(th, k); ok && v != k {
								t.Errorf("%s: key %d = %d", name, k, v)
							}
						}
					}
				}(th)
			}
			wg.Wait()
		})
	}
}

func TestBaselineQueuesConcurrent(t *testing.T) {
	const threads = 4
	for name, q := range allQueues(t, threads) {
		t.Run(name, func(t *testing.T) {
			defer q.Close()
			var wg sync.WaitGroup
			var deq sync.Map
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					for op := 0; op < 300; op++ {
						q.Enqueue(th, uint64(th)*1000000+uint64(op)+1)
						if v, ok := q.Dequeue(th); ok {
							if _, dup := deq.LoadOrStore(v, true); dup {
								t.Errorf("%s: value %d dequeued twice", name, v)
							}
						}
					}
				}(th)
			}
			wg.Wait()
		})
	}
}

func TestUndoLogRecovery(t *testing.T) {
	h := pmem.New(pmem.Config{Size: recoveryHeap})
	m := durable.NewMap(h, 64, 1, durable.UndoLog)
	for k := uint64(1); k <= 100; k++ {
		m.Insert(0, k, k)
	}
	// Durable linearizability: every completed op survives any crash.
	h.EvictAll()
	h.Crash()
	h.Reopen()
	m.Recover()
	for k := uint64(1); k <= 100; k++ {
		if v, ok := m.Get(0, k); !ok || v != k {
			t.Fatalf("key %d lost: %d,%v", k, v, ok)
		}
	}
}

func TestRedoLogRecovery(t *testing.T) {
	h := pmem.New(pmem.Config{Size: recoveryHeap})
	m := durable.NewMap(h, 64, 1, durable.RedoLog)
	for k := uint64(1); k <= 100; k++ {
		m.Insert(0, k, k+5)
	}
	h.EvictAll()
	h.Crash()
	h.Reopen()
	m.Recover()
	for k := uint64(1); k <= 100; k++ {
		if v, ok := m.Get(0, k); !ok || v != k+5 {
			t.Fatalf("key %d lost: %d,%v", k, v, ok)
		}
	}
}

func TestShadowRecovery(t *testing.T) {
	nv := pmem.New(pmem.Config{Size: heapSize})
	sh := shadow.NewHeap(nv, shadowWords, 1, true)
	m := shadow.NewMap(sh, 64, time.Hour) // manual checkpoints
	for k := uint64(1); k <= 50; k++ {
		m.Insert(0, k, k)
	}
	sh.Checkpoint() // twin now consistent with 50 keys
	for k := uint64(51); k <= 80; k++ {
		m.Insert(0, k, k) // doomed epoch
	}
	m.Close()
	nv.Crash()
	sh.Recover()
	for k := uint64(1); k <= 50; k++ {
		if v, ok := m.Get(0, k); !ok || v != k {
			t.Fatalf("checkpointed key %d lost: %d,%v", k, v, ok)
		}
	}
	for k := uint64(51); k <= 80; k++ {
		if _, ok := m.Get(0, k); ok {
			t.Fatalf("uncheckpointed key %d survived", k)
		}
	}
}

func TestShadowAlternatingTwins(t *testing.T) {
	nv := pmem.New(pmem.Config{Size: heapSize})
	sh := shadow.NewHeap(nv, shadowWords, 1, false)
	m := shadow.NewMap(sh, 64, time.Hour)
	// Three epochs with different keys, then crash: state of epoch 3.
	m.Insert(0, 1, 11)
	sh.Checkpoint()
	m.Insert(0, 2, 22)
	sh.Checkpoint()
	m.Insert(0, 3, 33)
	sh.Checkpoint()
	m.Close()
	nv.Crash()
	sh.Recover()
	for k := uint64(1); k <= 3; k++ {
		if v, ok := m.Get(0, k); !ok || v != k*11 {
			t.Fatalf("key %d: %d,%v", k, v, ok)
		}
	}
}

func TestCowMapRecovery(t *testing.T) {
	h := pmem.New(pmem.Config{Size: recoveryHeap})
	m := cow.NewMap(h, 64, time.Hour)
	for k := uint64(1); k <= 60; k++ {
		m.Insert(0, k, k*3)
	}
	m.Remove(0, 60)
	m.Checkpoint()
	// Doomed epoch.
	for k := uint64(100); k <= 130; k++ {
		m.Insert(0, k, k)
	}
	m.Remove(0, 1)
	m.Close()
	h.EvictAll() // even fully evicted, epoch tags exclude the doomed epoch
	h.Crash()
	live := m.Recover()
	if live != 59 {
		t.Fatalf("recovered %d keys, want 59", live)
	}
	for k := uint64(1); k <= 59; k++ {
		if v, ok := m.Get(0, k); !ok || v != k*3 {
			t.Fatalf("key %d: %d,%v", k, v, ok)
		}
	}
	if _, ok := m.Get(0, 60); ok {
		t.Fatal("deleted key 60 survived")
	}
	if _, ok := m.Get(0, 100); ok {
		t.Fatal("doomed-epoch key survived")
	}
}

func TestCowQueueRecovery(t *testing.T) {
	h := pmem.New(pmem.Config{Size: recoveryHeap})
	q := cow.NewQueue(h, time.Hour)
	for i := uint64(1); i <= 30; i++ {
		q.Enqueue(0, i)
	}
	for i := 0; i < 10; i++ {
		q.Dequeue(0)
	}
	q.Checkpoint() // durable: 11..30
	for i := uint64(100); i < 110; i++ {
		q.Enqueue(0, i) // doomed
	}
	q.Close()
	h.EvictAll()
	h.Crash()
	n := q.Recover()
	if n != 20 {
		t.Fatalf("recovered %d elements, want 20", n)
	}
	for i := uint64(11); i <= 30; i++ {
		v, ok := q.Dequeue(0)
		if !ok || v != i {
			t.Fatalf("dequeue: %d,%v want %d", v, ok, i)
		}
	}
}

func TestDaliRecovery(t *testing.T) {
	h := pmem.New(pmem.Config{Size: recoveryHeap})
	m := dali.NewMap(h, 64, 1, time.Hour)
	for k := uint64(1); k <= 50; k++ {
		m.Insert(0, k, k)
	}
	m.Checkpoint()
	for k := uint64(1); k <= 25; k++ {
		m.Insert(0, k, 999) // doomed overwrites
	}
	m.Remove(0, 30) // doomed delete
	m.Close()
	h.EvictAll()
	h.Crash()
	m.Recover()
	for k := uint64(1); k <= 50; k++ {
		if v, ok := m.Get(0, k); !ok || v != k {
			t.Fatalf("key %d: %d,%v (doomed epoch leaked)", k, v, ok)
		}
	}
}

func TestSoftRecovery(t *testing.T) {
	h := pmem.New(pmem.Config{Size: recoveryHeap})
	m := soft.NewMap(h, 64, 1)
	for k := uint64(1); k <= 100; k++ {
		m.Insert(0, k, k+7)
	}
	m.Remove(0, 50)
	// Durable linearizability: state survives without any checkpoint.
	h.Crash()
	live := m.Recover()
	if live != 99 {
		t.Fatalf("recovered %d nodes, want 99", live)
	}
	for k := uint64(1); k <= 100; k++ {
		v, ok := m.Get(0, k)
		if k == 50 {
			if ok {
				t.Fatal("removed key survived")
			}
			continue
		}
		if !ok || v != k+7 {
			t.Fatalf("key %d: %d,%v", k, v, ok)
		}
	}
}

func TestFriedmanRecovery(t *testing.T) {
	h := pmem.New(pmem.Config{Size: recoveryHeap})
	q := friedman.NewQueue(h, 1, 0)
	for i := uint64(1); i <= 40; i++ {
		q.Enqueue(0, i)
	}
	for i := 0; i < 15; i++ {
		q.Dequeue(0)
	}
	h.Crash()
	n := q.Recover()
	if n != 25 {
		t.Fatalf("recovered %d elements, want 25", n)
	}
	for i := uint64(16); i <= 40; i++ {
		v, ok := q.Dequeue(0)
		if !ok || v != i {
			t.Fatalf("dequeue %d,%v want %d", v, ok, i)
		}
	}
}

func TestFriedmanHeavyRecycling(t *testing.T) {
	h := pmem.New(pmem.Config{Size: heapSize})
	q := friedman.NewQueue(h, 1, 0)
	// Far more ops than nodes fit without recycling.
	for i := uint64(0); i < 50000; i++ {
		q.Enqueue(0, i)
		if _, ok := q.Dequeue(0); !ok {
			t.Fatal("dequeue failed")
		}
	}
}

func TestUndoLogRollsBackTornOp(t *testing.T) {
	// A crash after a committed op: the committed key must survive whatever
	// Recover undoes. Torn ops themselves, crashed at every persistence
	// event of every op under every policy, are durable's
	// TestDurableCrashAtEveryPoint.
	h := pmem.New(pmem.Config{Size: recoveryHeap})
	m := durable.NewMap(h, 4, 1, durable.UndoLog)
	m.Insert(0, 1, 10)
	h.EvictAll() // committed op fully durable, log truncated

	m.Insert(0, 2, 20)
	h.Crash()
	h.Reopen()
	undone := m.Recover()
	_ = undone // may be 0 (op committed) — both states are linearizable
	if v, ok := m.Get(0, 1); !ok || v != 10 {
		t.Fatalf("committed key lost: %d,%v", v, ok)
	}
}

func TestIncllTMRecovery(t *testing.T) {
	h := pmem.New(pmem.Config{Size: recoveryHeap})
	m := durable.NewMap(h, 64, 2, durable.InCLL)
	for k := uint64(1); k <= 120; k++ {
		m.Insert(0, k, k*2)
	}
	m.Remove(1, 60)
	// Durable linearizability: all completed ops survive any crash, even
	// with every line already evicted.
	h.EvictAll()
	h.Crash()
	m.Recover()
	for k := uint64(1); k <= 120; k++ {
		v, ok := m.Get(0, k)
		if k == 60 {
			if ok {
				t.Fatal("removed key survived")
			}
			continue
		}
		if !ok || v != k*2 {
			t.Fatalf("key %d: %d,%v", k, v, ok)
		}
	}
	// The map stays fully operational after recovery.
	if !m.Insert(0, 1000, 1) {
		t.Fatal("post-recovery insert failed")
	}
}

func TestIncllTMRecoveryRollsBackTornOp(t *testing.T) {
	// A committed overwrite, fully evicted, then a crash: recovery must keep
	// the new value, not roll it back to its backup. Torn ops, crashed at
	// every persistence event of every op under every policy, with and
	// without eviction, are durable's TestDurableCrashAtEveryPoint.
	h := pmem.New(pmem.Config{Size: recoveryHeap})
	m := durable.NewMap(h, 8, 1, durable.InCLL)
	m.Insert(0, 5, 50)
	h.EvictAll() // committed op durable

	m.Insert(0, 5, 51)
	h.EvictAll()
	h.Crash()
	undone := m.Recover()
	_ = undone // both ops committed: nothing to undo is also correct
	if v, ok := m.Get(0, 5); !ok || v != 51 {
		t.Fatalf("committed update lost: %d,%v", v, ok)
	}
}

// TestFriedmanRecycledNodeStress is the regression for a dequeuer that acts
// on a node it read before being preempted: by the time it claims the node
// or reads its value, the node may have been dequeued, retired, recycled
// and re-enqueued, so one value came back twice and another was lost. Many
// more goroutines than CPUs, each yielding between its enqueue and dequeue,
// keep dequeuers stalled across whole recycling rounds; every value must
// come back exactly once.
func TestFriedmanRecycledNodeStress(t *testing.T) {
	const threads, ops = 16, 4000
	q := friedman.NewQueue(pmem.New(pmem.Config{Size: heapSize}), threads, 0)
	var wg sync.WaitGroup
	got := make([][]uint64, threads)
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				q.Enqueue(th, uint64(th)*1000000+uint64(op)+1)
				runtime.Gosched()
				if v, ok := q.Dequeue(th); ok {
					got[th] = append(got[th], v)
				}
			}
		}(th)
	}
	wg.Wait()
	seen := make(map[uint64]bool, threads*ops)
	record := func(v uint64) {
		if seen[v] {
			t.Errorf("value %d dequeued twice", v)
		}
		seen[v] = true
	}
	for _, vs := range got {
		for _, v := range vs {
			record(v)
		}
	}
	for v, ok := q.Dequeue(0); ok; v, ok = q.Dequeue(0) {
		record(v)
	}
	if len(seen) != threads*ops {
		t.Errorf("%d distinct values came back, %d went in", len(seen), threads*ops)
	}
}
