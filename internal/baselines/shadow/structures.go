package shadow

import (
	"sync"
	"time"

	"github.com/respct/respct/internal/structures"
)

// Map and Queue run the paper's micro-benchmark structures over a shadowed
// heap. All state — bucket array, list nodes, free lists, the allocation
// cursor — lives in shadowed words, so a recovered heap yields a complete
// structure.

// word indices inside the shadowed heap used as metadata
const (
	metaBump  = 0 // next free word
	metaHead  = 1 // queue head
	metaTail  = 2 // queue tail
	metaFree  = 3 // node free list
	metaWords = 8
)

// Map is a lock-per-bucket hash map on a shadowed heap.
// Node layout (words): [next, key, value].
type Map struct {
	h       *Heap
	nBucket uint64
	bucket0 int // word index of bucket array
	locks   []sync.Mutex
	allocMu sync.Mutex
	ck      *ticker
}

// NewMap creates a shadowed map with its own periodic checkpointer.
func NewMap(h *Heap, nBucket int, interval time.Duration) *Map {
	m := &Map{h: h, nBucket: uint64(nBucket), bucket0: metaWords, locks: make([]sync.Mutex, nBucket)}
	h.Store(0, metaBump, uint64(metaWords+nBucket))
	m.ck = startTicker(h, interval)
	return m
}

func (m *Map) allocNode(th int) int {
	if f := m.h.Load(metaFree); f != 0 {
		m.h.Store(th, metaFree, m.h.Load(int(f)))
		return int(f)
	}
	cur := m.h.Load(metaBump)
	if int(cur)+3 > m.h.Words() {
		panic("shadow: out of memory")
	}
	m.h.Store(th, metaBump, cur+3)
	return int(cur)
}

func (m *Map) bucketIdx(key uint64) (int, *sync.Mutex) {
	b := structures.HashMix(key) % m.nBucket
	return m.bucket0 + int(b), &m.locks[b]
}

// Insert implements structures.Map.
func (m *Map) Insert(th int, key, value uint64) bool {
	m.h.Enter()
	defer m.h.Exit()
	head, mu := m.bucketIdx(key)
	mu.Lock()
	defer mu.Unlock()
	for n := int(m.h.Load(head)); n != 0; n = int(m.h.Load(n)) {
		if m.h.Load(n+1) == key {
			m.h.Store(th, n+2, value)
			return false
		}
	}
	n := m.allocLocked(th)
	m.h.Store(th, n, m.h.Load(head))
	m.h.Store(th, n+1, key)
	m.h.Store(th, n+2, value)
	m.h.Store(th, head, uint64(n))
	return true
}

func (m *Map) allocLocked(th int) int {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	return m.allocNode(th)
}

func (m *Map) freeLocked(th, n int) {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	m.h.Store(th, n, m.h.Load(metaFree))
	m.h.Store(th, metaFree, uint64(n))
}

// Remove implements structures.Map.
func (m *Map) Remove(th int, key uint64) bool {
	m.h.Enter()
	defer m.h.Exit()
	head, mu := m.bucketIdx(key)
	mu.Lock()
	defer mu.Unlock()
	prev := head
	for n := int(m.h.Load(head)); n != 0; n = int(m.h.Load(n)) {
		if m.h.Load(n+1) == key {
			m.h.Store(th, prev, m.h.Load(n))
			m.freeLocked(th, n)
			return true
		}
		prev = n
	}
	return false
}

// Get implements structures.Map.
func (m *Map) Get(th int, key uint64) (uint64, bool) {
	m.h.Enter()
	defer m.h.Exit()
	head, mu := m.bucketIdx(key)
	mu.Lock()
	defer mu.Unlock()
	for n := int(m.h.Load(head)); n != 0; n = int(m.h.Load(n)) {
		if m.h.Load(n+1) == key {
			return m.h.Load(n + 2), true
		}
	}
	return 0, false
}

// PerOp implements structures.Map.
func (m *Map) PerOp(int) {}

// ThreadExit implements structures.Map.
func (m *Map) ThreadExit(int) {}

// Close stops the checkpointer.
func (m *Map) Close() { m.ck.stop() }

// Queue is a single-lock FIFO on a shadowed heap.
// Node layout (words): [next, value].
type Queue struct {
	h  *Heap
	mu sync.Mutex
	ck *ticker
}

// NewQueue creates a shadowed queue with its own periodic checkpointer.
func NewQueue(h *Heap, interval time.Duration) *Queue {
	h.Store(0, metaBump, uint64(metaWords))
	q := &Queue{h: h}
	q.ck = startTicker(h, interval)
	return q
}

func (q *Queue) allocNode(th int) int {
	if f := q.h.Load(metaFree); f != 0 {
		q.h.Store(th, metaFree, q.h.Load(int(f)))
		return int(f)
	}
	cur := q.h.Load(metaBump)
	if int(cur)+2 > q.h.Words() {
		panic("shadow: out of memory")
	}
	q.h.Store(th, metaBump, cur+2)
	return int(cur)
}

// Enqueue implements structures.Queue.
func (q *Queue) Enqueue(th int, v uint64) {
	q.h.Enter()
	defer q.h.Exit()
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.allocNode(th)
	q.h.Store(th, n, 0)
	q.h.Store(th, n+1, v)
	tail := int(q.h.Load(metaTail))
	if tail == 0 {
		q.h.Store(th, metaHead, uint64(n))
	} else {
		q.h.Store(th, tail, uint64(n))
	}
	q.h.Store(th, metaTail, uint64(n))
}

// Dequeue implements structures.Queue.
func (q *Queue) Dequeue(th int) (uint64, bool) {
	q.h.Enter()
	defer q.h.Exit()
	q.mu.Lock()
	defer q.mu.Unlock()
	n := int(q.h.Load(metaHead))
	if n == 0 {
		return 0, false
	}
	v := q.h.Load(n + 1)
	next := q.h.Load(n)
	q.h.Store(th, metaHead, next)
	if next == 0 {
		q.h.Store(th, metaTail, 0)
	}
	q.h.Store(th, n, q.h.Load(metaFree))
	q.h.Store(th, metaFree, uint64(n))
	return v, true
}

// PerOp implements structures.Queue.
func (q *Queue) PerOp(int) {}

// ThreadExit implements structures.Queue.
func (q *Queue) ThreadExit(int) {}

// Close stops the checkpointer.
func (q *Queue) Close() { q.ck.stop() }

// ticker drives periodic checkpoints on a shadowed heap.
type ticker struct {
	stopCh chan struct{}
	once   sync.Once
	done   sync.WaitGroup
}

func startTicker(h *Heap, interval time.Duration) *ticker {
	t := &ticker{stopCh: make(chan struct{})}
	t.done.Add(1)
	go func() {
		defer t.done.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-t.stopCh:
				return
			case <-tick.C:
				h.Checkpoint()
			}
		}
	}()
	return t
}

func (t *ticker) stop() {
	t.once.Do(func() { close(t.stopCh) })
	t.done.Wait()
}
