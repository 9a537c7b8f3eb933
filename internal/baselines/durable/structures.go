package durable

import (
	"sync"

	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// Map is the lock-per-bucket chained hash map. Bucket heads are logged
// words; a node is [next, value, key] at the policy's stride, the key raw.
type Map struct {
	shared
	buckets pmem.Addr
	nBucket uint64
	locks   []sync.Mutex
}

// NewMap creates a map of nBucket buckets for threads workers under p.
func NewMap(h *pmem.Heap, nBucket, threads int, p Policy) *Map {
	m := &Map{nBucket: uint64(nBucket), locks: make([]sync.Mutex, nBucket)}
	m.buckets = m.init(h, p, threads, nBucket*int(p.stride()), 2*int(p.stride())+8)
	return m
}

// lock locks key's bucket and returns its head and its lock.
func (m *Map) lock(key uint64) (pmem.Addr, *sync.Mutex) {
	b := structures.HashMix(key) % m.nBucket
	m.locks[b].Lock()
	return m.buckets + pmem.Addr(b)*m.stride, &m.locks[b]
}

// find returns the node holding key, or NilAddr, and the word linking it.
func (m *Map) find(s section, head pmem.Addr, key uint64) (link, n pmem.Addr) {
	for link, n = head, pmem.Addr(s.Load(head)); n != pmem.NilAddr; link, n = n, pmem.Addr(s.Load(n)) {
		if s.Load(n+2*m.stride) == key {
			break
		}
	}
	return link, n
}

// Insert implements structures.Map.
func (m *Map) Insert(th int, key, value uint64) bool {
	s := m.secs[th]
	head, mu := m.lock(key)
	defer mu.Unlock()
	s.Begin()
	if _, n := m.find(s, head, key); n != pmem.NilAddr {
		s.Store(n+m.stride, value)
		s.Commit()
		return false
	}
	n := m.node()
	s.Init(n, s.Load(head))
	s.Init(n+m.stride, value)
	s.Raw(n+2*m.stride, key)
	s.Store(head, uint64(n))
	s.Commit()
	return true
}

// Remove implements structures.Map.
func (m *Map) Remove(th int, key uint64) bool {
	s := m.secs[th]
	head, mu := m.lock(key)
	defer mu.Unlock()
	s.Begin()
	link, n := m.find(s, head, key)
	if n == pmem.NilAddr {
		s.Abort()
		return false
	}
	s.Store(link, s.Load(n))
	s.Commit()
	m.release(n)
	return true
}

// Get implements structures.Map. Under RedoLog even a read pays the read
// redirection.
func (m *Map) Get(th int, key uint64) (uint64, bool) {
	s := m.secs[th]
	head, mu := m.lock(key)
	defer mu.Unlock()
	if _, n := m.find(s, head, key); n != pmem.NilAddr {
		return s.Load(n + m.stride), true
	}
	return 0, false
}

// Recover brings the map back after a crash with exactly the operations that
// returned. It reopens the heap if it is still down.
func (m *Map) Recover() int { return m.reopen(m.walk) }

// walk visits each bucket head, then each node's next and value words.
func (m *Map) walk(visit func(pmem.Addr)) {
	for b := uint64(0); b < m.nBucket; b++ {
		next := m.buckets + pmem.Addr(b)*m.stride
		for visit(next); m.h.Load64(next) != 0; visit(next) {
			next = pmem.Addr(m.h.Load64(next))
			visit(next + m.stride)
		}
	}
}

// Queue is the single-lock FIFO (the paper runs Quadra under a lock too).
// Head and tail are logged words; a node is [next, value] at the policy's
// stride, the value raw.
type Queue struct {
	shared
	mu   sync.Mutex
	desc pmem.Addr // head, then tail
}

// NewQueue creates a queue for threads workers under p.
func NewQueue(h *pmem.Heap, threads int, p Policy) *Queue {
	q := &Queue{}
	q.desc = q.init(h, p, threads, 2*int(p.stride()), int(p.stride())+8)
	return q
}

// Enqueue implements structures.Queue.
func (q *Queue) Enqueue(th int, v uint64) {
	s := q.secs[th]
	q.mu.Lock()
	defer q.mu.Unlock()
	s.Begin()
	n := q.node()
	s.Init(n, 0)
	s.Raw(n+q.stride, v)
	if tail := pmem.Addr(s.Load(q.desc + q.stride)); tail == pmem.NilAddr {
		s.Store(q.desc, uint64(n))
	} else {
		s.Store(tail, uint64(n))
	}
	s.Store(q.desc+q.stride, uint64(n))
	s.Commit()
}

// Dequeue implements structures.Queue.
func (q *Queue) Dequeue(th int) (uint64, bool) {
	s := q.secs[th]
	q.mu.Lock()
	defer q.mu.Unlock()
	s.Begin()
	n := pmem.Addr(s.Load(q.desc))
	if n == pmem.NilAddr {
		s.Abort()
		return 0, false
	}
	v := s.Load(n + q.stride)
	next := s.Load(n)
	s.Store(q.desc, next)
	if next == 0 {
		s.Store(q.desc+q.stride, 0)
	}
	s.Commit()
	q.release(n)
	return v, true
}

// Recover brings the queue back after a crash with exactly the operations
// that returned. It reopens the heap if it is still down.
func (q *Queue) Recover() int { return q.reopen(q.walk) }

// walk visits the head, each node's next word, then the tail.
func (q *Queue) walk(visit func(pmem.Addr)) {
	for next := q.desc; next != pmem.NilAddr; next = pmem.Addr(q.h.Load64(next)) {
		visit(next)
	}
	visit(q.desc + q.stride)
}
