// Package baselines_test drives every baseline system through a shared
// battery: functional map/queue semantics, concurrent soak, and — for the
// systems where the paper's consistency model makes it meaningful — crash
// recovery.
package baselines_test

import (
	"maps"
	"math/rand"
	"runtime"
	"sync"
	"testing"

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

// shadowMap and shadowQueue pair a shadow structure with the heap whose
// Checkpoint it needs.
type shadowMap struct {
	*shadow.Map
	*shadow.Heap
}

type shadowQueue struct {
	*shadow.Queue
	*shadow.Heap
}

func newShadowMap(nv *pmem.Heap, nBucket int) shadowMap {
	sh := shadow.NewHeap(nv, shadowWords)
	return shadowMap{shadow.NewMap(sh, nBucket), sh}
}

func newShadowQueue(nv *pmem.Heap) shadowQueue {
	sh := shadow.NewHeap(nv, shadowWords)
	return shadowQueue{shadow.NewQueue(sh), sh}
}

func allMaps(t *testing.T, threads int) map[string]structures.Map {
	t.Helper()
	mk := func() *pmem.Heap { return pmem.New(pmem.Config{Size: heapSize}) }
	return map[string]structures.Map{
		"undolog-full":    durable.NewMap(mk(), 64, threads, durable.UndoLog),
		"undolog-clobber": durable.NewMap(mk(), 64, threads, durable.Clobber),
		"redolog":         durable.NewMap(mk(), 64, threads, durable.RedoLog),
		"inclltm":         durable.NewMap(mk(), 64, threads, durable.InCLL),
		"shadow":          newShadowMap(mk(), 64),
		"cow":             cow.NewMap(mk(), 64),
		"dali":            dali.NewMap(mk(), 64, threads),
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
		"shadow":          newShadowQueue(mk()),
		"cow":             cow.NewQueue(mk()),
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

// checkpointing runs x's checkpoints back to back, if it has any, until
// the returned function is called, so they race the operations.
func checkpointing(x any) (stop func()) {
	c, ok := x.(interface{ Checkpoint() })
	if !ok {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				c.Checkpoint()
				runtime.Gosched()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

func TestBaselineMapsConcurrent(t *testing.T) {
	const threads = 4
	for name, m := range allMaps(t, threads) {
		t.Run(name, func(t *testing.T) {
			defer m.Close()
			defer checkpointing(m)()
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
			defer checkpointing(q)()
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

func TestShadowRecovery(t *testing.T) {
	nv := pmem.New(pmem.Config{Size: heapSize})
	sh := shadow.NewHeap(nv, shadowWords)
	m := shadow.NewMap(sh, 64)
	for k := uint64(1); k <= 50; k++ {
		m.Insert(0, k, k)
	}
	sh.Checkpoint() // twin now consistent with 50 keys
	for k := uint64(51); k <= 80; k++ {
		m.Insert(0, k, k) // doomed epoch
	}
	nv.Crash()
	m = shadow.OpenMap(shadow.OpenHeap(nv, shadowWords), 64)
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
	sh := shadow.NewHeap(nv, shadowWords)
	m := shadow.NewMap(sh, 64)
	// Three epochs with different keys, then crash: state of epoch 3.
	m.Insert(0, 1, 11)
	sh.Checkpoint()
	m.Insert(0, 2, 22)
	sh.Checkpoint()
	m.Insert(0, 3, 33)
	sh.Checkpoint()
	nv.Crash()
	reopen := func() {
		sh = shadow.OpenHeap(nv, shadowWords)
		m = shadow.OpenMap(sh, 64)
	}
	reopen()
	for k := uint64(1); k <= 3; k++ {
		if v, ok := m.Get(0, k); !ok || v != k*11 {
			t.Fatalf("key %d: %d,%v", k, v, ok)
		}
	}
	// Nodes are three words from word 72 on, so key 200's lies on the
	// second 512-word page and key 1's on the first. The twins then differ
	// in key 200's page, and the first checkpoint after recovery writes the
	// twin that lags: it must take every page, not only the one key 1's
	// overwrite dirties.
	for k := uint64(4); k <= 200; k++ {
		m.Insert(0, k, k*11)
	}
	sh.Checkpoint()
	m.Insert(0, 200, 2000)
	sh.Checkpoint()
	nv.Crash()
	reopen()
	m.Insert(0, 1, 111)
	sh.Checkpoint()
	nv.Crash()
	reopen()
	for k, want := range map[uint64]uint64{1: 111, 2: 22, 200: 2000} {
		if v, ok := m.Get(0, k); !ok || v != want {
			t.Fatalf("after two recoveries, key %d: %d,%v, want %d", k, v, ok, want)
		}
	}
}

func TestCowMapRecovery(t *testing.T) {
	h := pmem.New(pmem.Config{Size: recoveryHeap})
	m := cow.NewMap(h, 64)
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
	h.EvictAll() // even fully evicted, epoch tags exclude the doomed epoch
	h.Crash()
	m = cow.OpenMap(h, 64)
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
	q := cow.NewQueue(h)
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
	h.EvictAll()
	h.Crash()
	q = cow.OpenQueue(h)
	for i := uint64(11); i <= 30; i++ {
		v, ok := q.Dequeue(0)
		if !ok || v != i {
			t.Fatalf("dequeue: %d,%v want %d", v, ok, i)
		}
	}
	if v, ok := q.Dequeue(0); ok {
		t.Fatalf("recovered queue holds %d past its 20 elements", v)
	}
}

func TestDaliRecovery(t *testing.T) {
	h := pmem.New(pmem.Config{Size: recoveryHeap})
	m := dali.NewMap(h, 64, 1)
	for k := uint64(1); k <= 50; k++ {
		m.Insert(0, k, k)
	}
	m.Checkpoint()
	for k := uint64(1); k <= 25; k++ {
		m.Insert(0, k, 999) // doomed overwrites
	}
	m.Remove(0, 30) // doomed delete
	h.EvictAll()
	h.Crash()
	m = dali.OpenMap(h, 64, 1)
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
	m = soft.OpenMap(h, 64, 1)
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
	q = friedman.OpenQueue(h, 1, 0)
	for i := uint64(16); i <= 40; i++ {
		v, ok := q.Dequeue(0)
		if !ok || v != i {
			t.Fatalf("dequeue %d,%v want %d", v, ok, i)
		}
	}
	if v, ok := q.Dequeue(0); ok {
		t.Fatalf("recovered queue holds %d past its 25 elements", v)
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
	m = durable.OpenMap(h, 64, 2, durable.InCLL)
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

// cost is the persistence work of one kind of operation over a script: the
// cache lines written back to the persistent heap and the fences issued.
type cost struct{ writeBacks, fences int }

// opCosts runs script on a structure built on h and returns each op kind's
// summed cost. Only the ops are counted, not the construction before them.
func opCosts(h *pmem.Heap, script func(do func(kind string, op func()))) map[string]cost {
	r := pmem.NewRecorder()
	r.Attach(h)
	defer r.Detach()
	costs := map[string]cost{}
	script(func(kind string, op func()) {
		from := r.Len()
		op()
		c := costs[kind]
		for _, e := range r.Events()[from:] {
			switch e.Kind {
			case pmem.EvWriteBack:
				c.writeBacks++
			case pmem.EvFence:
				c.fences++
			}
		}
		costs[kind] = c
	})
	return costs
}

func mapScript(m structures.Map) func(do func(string, func())) {
	return func(do func(string, func())) {
		for k := uint64(1); k <= 8; k++ {
			do("Insert", func() { m.Insert(0, k, k*10) })
		}
		do("Insert", func() { m.Insert(0, 2, 21) })
		do("Insert", func() { m.Insert(0, 3, 30) })
		for _, k := range []uint64{1, 2, 9} {
			do("Get", func() { m.Get(0, k) })
		}
		for _, k := range []uint64{3, 9} {
			do("Remove", func() { m.Remove(0, k) })
		}
		do("Insert", func() { m.Insert(0, 3, 33) })
	}
}

func queueScript(q structures.Queue) func(do func(string, func())) {
	return func(do func(string, func())) {
		for v := uint64(1); v <= 70; v++ {
			do("Enqueue", func() { q.Enqueue(0, v) })
		}
		for i := 0; i <= 70; i++ {
			do("Dequeue", func() { q.Dequeue(0) })
		}
		for v := uint64(71); v <= 72; v++ {
			do("Enqueue", func() { q.Enqueue(0, v) })
		}
	}
}

// TestPerOpPersistenceCostPinned pins the write-backs and fences each
// comparator's operations cost over a fixed script, so the Fig. 8/9 costs
// cannot move without this table changing. Checkpoints, construction and
// recovery are not counted.
func TestPerOpPersistenceCostPinned(t *testing.T) {
	mk := func() *pmem.Heap { return pmem.New(pmem.Config{Size: recoveryHeap}) }
	got := map[string]map[string]cost{}
	for _, p := range []struct {
		name string
		pol  durable.Policy
	}{{"UndoLog", durable.UndoLog}, {"Clobber", durable.Clobber}, {"RedoLog", durable.RedoLog}, {"InCLL", durable.InCLL}} {
		h := mk()
		got[p.name+"/map"] = opCosts(h, mapScript(durable.NewMap(h, 4, 1, p.pol)))
		h = mk()
		got[p.name+"/queue"] = opCosts(h, queueScript(durable.NewQueue(h, 1, p.pol)))
	}
	h := mk()
	got["Dali/map"] = opCosts(h, mapScript(dali.NewMap(h, 4, 1)))
	h = mk()
	got["COW/map"] = opCosts(h, mapScript(cow.NewMap(h, 4)))
	h = mk()
	got["COW/queue"] = opCosts(h, queueScript(cow.NewQueue(h)))
	h = mk()
	got["Shadow/map"] = opCosts(h, mapScript(shadow.NewMap(shadow.NewHeap(h, shadowWords/16), 4)))
	h = mk()
	got["Shadow/queue"] = opCosts(h, queueScript(shadow.NewQueue(shadow.NewHeap(h, shadowWords/16))))
	h = mk()
	got["SOFT/map"] = opCosts(h, mapScript(soft.NewMap(h, 4, 1)))
	h = mk()
	got["Friedman/queue"] = opCosts(h, queueScript(friedman.NewQueue(h, 1, 0)))

	if len(got) != 15 {
		t.Fatalf("%d structures measured, want 15", len(got))
	}
	for name, costs := range got {
		if want := pinnedOpCosts[name]; !maps.Equal(costs, want) {
			t.Errorf("%s: per-op costs %v, pinned %v", name, costs, want)
		}
	}
}

var pinnedOpCosts = map[string]map[string]cost{
	"UndoLog/map":    {"Get": {0, 0}, "Insert": {69, 60}, "Remove": {3, 3}},
	"UndoLog/queue":  {"Dequeue": {211, 211}, "Enqueue": {574, 432}},
	"Clobber/map":    {"Get": {0, 0}, "Insert": {42, 33}, "Remove": {3, 3}},
	"Clobber/queue":  {"Dequeue": {211, 211}, "Enqueue": {430, 288}},
	"RedoLog/map":    {"Get": {0, 0}, "Insert": {62, 44}, "Remove": {4, 4}},
	"RedoLog/queue":  {"Dequeue": {280, 280}, "Enqueue": {502, 288}},
	"InCLL/map":      {"Get": {0, 0}, "Insert": {40, 22}, "Remove": {2, 2}},
	"InCLL/queue":    {"Dequeue": {140, 140}, "Enqueue": {286, 144}},
	"Dali/map":       {"Get": {0, 0}, "Insert": {8, 8}, "Remove": {0, 0}},
	"COW/map":        {"Get": {0, 0}, "Insert": {0, 0}, "Remove": {0, 0}},
	"COW/queue":      {"Dequeue": {0, 0}, "Enqueue": {0, 0}},
	"Shadow/map":     {"Get": {0, 0}, "Insert": {0, 0}, "Remove": {0, 0}},
	"Shadow/queue":   {"Dequeue": {0, 0}, "Enqueue": {0, 0}},
	"SOFT/map":       {"Get": {0, 0}, "Insert": {11, 11}, "Remove": {1, 1}},
	"Friedman/queue": {"Dequeue": {71, 71}, "Enqueue": {144, 144}},
}
