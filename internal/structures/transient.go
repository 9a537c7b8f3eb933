//respct:allow rawstore — transient flavours have no fault-tolerance logic by design (the paper's Transient baselines); their region is discarded on restart, never recovered
package structures

import (
	"sync"

	"github.com/respct/respct/internal/pmem"
)

// The transient flavours run the exact lock discipline of the persistent
// ones but store their nodes in a simulated heap with no fault-tolerance
// logic at all. Instantiated over a DRAM-configured heap they are the
// paper's Transient<DRAM> baseline; over an NVMM-configured heap they are
// Transient<NVMM> (§5.2's overhead analysis): same code, only the latency
// model differs.

// HashMix is a 64-bit finaliser (splitmix64) used by every map flavour so
// the bucket distribution is identical across systems.
func HashMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// node layout for the transient flavours, in words: [next, key, value].
const tnodeWords = 3

// per-bucket in-line layout, in words: [key0, val0, key1, val1, overflow].
const tbucketWords = 5

// TransientMap is a lock-per-bucket hash map over a simulated heap, with
// the Synch-framework layout the paper ports: two in-line key/value slots
// per bucket plus a chained overflow list for collisions beyond two.
type TransientMap struct {
	noopSync
	h       *pmem.Heap
	alloc   *pmem.Bump
	buckets pmem.Addr // array of tbucketWords-word buckets
	nBucket uint64
	locks   []sync.Mutex

	freeMu sync.Mutex
	free   pmem.Addr // volatile free list of recycled overflow nodes
}

// NewTransientMap creates a transient map with nBucket buckets on h,
// allocating from the heap's whole data area.
func NewTransientMap(h *pmem.Heap, nBucket int) *TransientMap {
	m := &TransientMap{
		h:       h,
		alloc:   pmem.NewBumpAll(h),
		nBucket: uint64(nBucket),
		locks:   make([]sync.Mutex, nBucket),
	}
	m.buckets = m.alloc.Alloc(nBucket * tbucketWords * 8)
	if m.buckets == pmem.NilAddr {
		panic("structures: heap too small for bucket array")
	}
	return m
}

func (m *TransientMap) bucket(key uint64) (pmem.Addr, *sync.Mutex) {
	b := HashMix(key) % m.nBucket
	return m.buckets + pmem.Addr(b*tbucketWords*8), &m.locks[b]
}

func (m *TransientMap) newNode(next pmem.Addr, key, value uint64) pmem.Addr {
	m.freeMu.Lock()
	n := m.free
	if n != pmem.NilAddr {
		m.free = pmem.Addr(m.h.Load64(n))
	}
	m.freeMu.Unlock()
	if n == pmem.NilAddr {
		n = m.alloc.Alloc(tnodeWords * 8)
		if n == pmem.NilAddr {
			panic("structures: transient map out of memory")
		}
	}
	m.h.Store64(n, uint64(next))
	m.h.Store64(n+8, key)
	m.h.Store64(n+16, value)
	return n
}

func (m *TransientMap) freeNode(n pmem.Addr) {
	m.freeMu.Lock()
	m.h.Store64(n, uint64(m.free))
	m.free = n
	m.freeMu.Unlock()
}

// Insert implements Map.
func (m *TransientMap) Insert(_ int, key, value uint64) bool {
	bkt, mu := m.bucket(key)
	mu.Lock()
	defer mu.Unlock()
	freeSlot := pmem.NilAddr
	for s := 0; s < 2; s++ {
		slot := bkt + pmem.Addr(s*16)
		k := m.h.Load64(slot)
		if k == key {
			m.h.Store64(slot+8, value)
			return false
		}
		if k == 0 && freeSlot == pmem.NilAddr {
			freeSlot = slot
		}
	}
	ovf := bkt + 32
	for n := pmem.Addr(m.h.Load64(ovf)); n != pmem.NilAddr; n = pmem.Addr(m.h.Load64(n)) {
		if m.h.Load64(n+8) == key {
			m.h.Store64(n+16, value)
			return false
		}
	}
	if freeSlot != pmem.NilAddr {
		m.h.Store64(freeSlot+8, value)
		m.h.Store64(freeSlot, key)
		return true
	}
	m.h.Store64(ovf, uint64(m.newNode(pmem.Addr(m.h.Load64(ovf)), key, value)))
	return true
}

// Remove implements Map.
func (m *TransientMap) Remove(_ int, key uint64) bool {
	bkt, mu := m.bucket(key)
	mu.Lock()
	defer mu.Unlock()
	for s := 0; s < 2; s++ {
		slot := bkt + pmem.Addr(s*16)
		if m.h.Load64(slot) == key {
			m.h.Store64(slot, 0)
			return true
		}
	}
	prev := bkt + 32
	for n := pmem.Addr(m.h.Load64(prev)); n != pmem.NilAddr; n = pmem.Addr(m.h.Load64(n)) {
		if m.h.Load64(n+8) == key {
			m.h.Store64(prev, m.h.Load64(n))
			m.freeNode(n)
			return true
		}
		prev = n
	}
	return false
}

// Get implements Map.
func (m *TransientMap) Get(_ int, key uint64) (uint64, bool) {
	bkt, mu := m.bucket(key)
	mu.Lock()
	defer mu.Unlock()
	for s := 0; s < 2; s++ {
		slot := bkt + pmem.Addr(s*16)
		if m.h.Load64(slot) == key {
			return m.h.Load64(slot + 8), true
		}
	}
	for n := pmem.Addr(m.h.Load64(bkt + 32)); n != pmem.NilAddr; n = pmem.Addr(m.h.Load64(n)) {
		if m.h.Load64(n+8) == key {
			return m.h.Load64(n + 16), true
		}
	}
	return 0, false
}

// Len counts entries (test helper; takes every bucket lock in turn).
func (m *TransientMap) Len() int {
	total := 0
	for b := uint64(0); b < m.nBucket; b++ {
		m.locks[b].Lock()
		bkt := m.buckets + pmem.Addr(b*tbucketWords*8)
		for s := 0; s < 2; s++ {
			if m.h.Load64(bkt+pmem.Addr(s*16)) != 0 {
				total++
			}
		}
		for n := pmem.Addr(m.h.Load64(bkt + 32)); n != pmem.NilAddr; n = pmem.Addr(m.h.Load64(n)) {
			total++
		}
		m.locks[b].Unlock()
	}
	return total
}

// TransientQueue is a single-lock linked FIFO over a simulated heap,
// mirroring the paper's queue micro-benchmark. Node layout: [next, value].
type TransientQueue struct {
	noopSync
	h     *pmem.Heap
	alloc *pmem.Bump
	mu    sync.Mutex
	head  pmem.Addr
	tail  pmem.Addr
	free  pmem.Addr
}

// NewTransientQueue creates an empty transient queue on h.
func NewTransientQueue(h *pmem.Heap) *TransientQueue {
	return &TransientQueue{h: h, alloc: pmem.NewBumpAll(h)}
}

// Enqueue implements Queue.
func (q *TransientQueue) Enqueue(_ int, v uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.free
	if n != pmem.NilAddr {
		q.free = pmem.Addr(q.h.Load64(n))
	} else {
		n = q.alloc.Alloc(16)
		if n == pmem.NilAddr {
			panic("structures: transient queue out of memory")
		}
	}
	q.h.Store64(n, 0)
	q.h.Store64(n+8, v)
	if q.tail == pmem.NilAddr {
		q.head, q.tail = n, n
	} else {
		q.h.Store64(q.tail, uint64(n))
		q.tail = n
	}
}

// Dequeue implements Queue.
func (q *TransientQueue) Dequeue(_ int) (uint64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.head
	if n == pmem.NilAddr {
		return 0, false
	}
	v := q.h.Load64(n + 8)
	q.head = pmem.Addr(q.h.Load64(n))
	if q.head == pmem.NilAddr {
		q.tail = pmem.NilAddr
	}
	q.h.Store64(n, uint64(q.free))
	q.free = n
	return v, true
}

// Len counts queued elements (test helper).
func (q *TransientQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	total := 0
	for n := q.head; n != pmem.NilAddr; n = pmem.Addr(q.h.Load64(n)) {
		total++
	}
	return total
}
