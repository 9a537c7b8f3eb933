// Package soft implements a SOFT-style durable hash map (Zuriel et al.,
// OOPSLA'19): persistent nodes carrying validity flags live in NVMM, while
// the search structure — per-bucket linked lists — lives entirely in DRAM.
// Lookups never touch NVMM, which is why SOFT outperforms even the transient
// lock-based hash map on read-intensive workloads in the paper's Fig. 8.
// Inserts and removes persist their node (one flush + fence) before becoming
// visible.
//
// The DRAM index is a simulated DRAM-latency heap (so all systems pay equal
// simulated-memory costs); index node layout (words): [key, value, pnode,
// next]. Lookups are lock-free traversals of the index (word loads are
// atomic); writers to the same bucket serialise on a bucket mutex — a
// simplification of the original's lock-free insert/remove, whose read path
// (the part that dominates the paper's workloads where SOFT shines) is
// faithful. Unlinked index nodes are not recycled, so lock-free readers can
// never wander into a reused node.
//
//respct:allow rawstore — SOFT baseline persists nodes with validity flags and explicit fences; bypasses ResPCT tracking by design
package soft

import (
	"sync"

	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// persistent node layout (words): [key, value, valid]
const (
	pKey   = 0
	pVal   = 8
	pValid = 16

	validLive = 1
	validDead = 2
)

// index node layout in the DRAM heap (words)
const (
	vKey   = 0
	vVal   = 8
	vPNode = 16
	vNext  = 24
)

// Map is the SOFT-style durable hash map.
type Map struct {
	h       *pmem.Heap
	alloc   *pmem.Bump
	dram    *pmem.Heap
	dalloc  *pmem.Bump
	nBucket uint64
	heads   pmem.Addr // word array in the DRAM heap
	locks   []sync.Mutex
	fls     []*pmem.Flusher

	freeMu sync.Mutex
	free   []pmem.Addr // recycled persistent nodes
}

// NewMap creates a SOFT-style map for `threads` workers.
//
// The DRAM index is sized to the data: an index node takes a line, as a
// persistent node does. Removed index nodes are never recycled (Get is
// lock-free and has no grace period to wait out), so the index grows with
// fresh inserts rather than live keys; it gets twice the persistent heap's
// lines, and Recover rebuilds it from scratch.
func NewMap(h *pmem.Heap, nBucket, threads int) *Map {
	dram := pmem.New(pmem.DRAMConfig(int64(nBucket)*8 + pmem.LineSize + 2*h.Size()))
	m := &Map{
		h:       h,
		alloc:   pmem.NewBumpAll(h),
		dram:    dram,
		dalloc:  pmem.NewBumpAll(dram),
		nBucket: uint64(nBucket),
		locks:   make([]sync.Mutex, nBucket),
		fls:     make([]*pmem.Flusher, threads),
	}
	m.heads = m.dalloc.Alloc(nBucket * 8)
	if m.heads == pmem.NilAddr {
		panic("soft: DRAM index heap too small")
	}
	for i := range m.fls {
		m.fls[i] = h.NewFlusher()
	}
	return m
}

func (m *Map) bucketHead(key uint64) pmem.Addr {
	return m.heads + pmem.Addr((structures.HashMix(key)%m.nBucket)*8)
}

func (m *Map) allocPNode() pmem.Addr {
	m.freeMu.Lock()
	var p pmem.Addr
	if n := len(m.free); n > 0 {
		p = m.free[n-1]
		m.free = m.free[:n-1]
	}
	m.freeMu.Unlock()
	if p == pmem.NilAddr {
		p = m.alloc.Alloc(24)
		if p == pmem.NilAddr {
			panic("soft: out of persistent memory")
		}
	}
	return p
}

func (m *Map) newVNode(key, value uint64, pnode, next pmem.Addr) pmem.Addr {
	n := m.dalloc.Alloc(32)
	if n == pmem.NilAddr {
		panic("soft: DRAM index heap exhausted")
	}
	m.dram.Store64(n+vKey, key)
	m.dram.Store64(n+vVal, value)
	m.dram.Store64(n+vPNode, uint64(pnode))
	m.dram.Store64(n+vNext, uint64(next))
	return n
}

// writePNode fills and persists a fresh persistent node.
func (m *Map) writePNode(th int, p pmem.Addr, key, value, valid uint64) {
	m.h.Store64(p+pKey, key)
	m.h.Store64(p+pVal, value)
	m.h.Store64(p+pValid, valid)
	m.fls[th].Persist(p)
}

// Insert implements structures.Map. The persistent node is made durable
// before the volatile index makes it visible (durable linearizability).
func (m *Map) Insert(th int, key, value uint64) bool {
	head := m.bucketHead(key)
	b := structures.HashMix(key) % m.nBucket
	m.locks[b].Lock()
	defer m.locks[b].Unlock()
	for n := pmem.Addr(m.dram.Load64(head)); n != pmem.NilAddr; n = pmem.Addr(m.dram.Load64(n + vNext)) {
		if m.dram.Load64(n+vKey) == key {
			if m.dram.Load64(n+vVal) == value {
				return false
			}
			// SOFT updates are delete+insert of the persistent node.
			p := m.allocPNode()
			m.writePNode(th, p, key, value, validLive)
			old := pmem.Addr(m.dram.Load64(n + vPNode))
			m.h.Store64(old+pValid, validDead)
			m.fls[th].Persist(old)
			m.dram.Store64(n+vVal, value)
			m.dram.Store64(n+vPNode, uint64(p))
			m.freeMu.Lock()
			m.free = append(m.free, old)
			m.freeMu.Unlock()
			return false
		}
	}
	p := m.allocPNode()
	m.writePNode(th, p, key, value, validLive)
	n := m.newVNode(key, value, p, pmem.Addr(m.dram.Load64(head)))
	m.dram.Store64(head, uint64(n))
	return true
}

// Remove implements structures.Map.
func (m *Map) Remove(th int, key uint64) bool {
	head := m.bucketHead(key)
	b := structures.HashMix(key) % m.nBucket
	m.locks[b].Lock()
	defer m.locks[b].Unlock()
	prev := head
	prevIsHead := true
	for n := pmem.Addr(m.dram.Load64(head)); n != pmem.NilAddr; n = pmem.Addr(m.dram.Load64(n + vNext)) {
		if m.dram.Load64(n+vKey) == key {
			pnode := pmem.Addr(m.dram.Load64(n + vPNode))
			m.h.Store64(pnode+pValid, validDead)
			m.fls[th].Persist(pnode)
			next := m.dram.Load64(n + vNext)
			if prevIsHead {
				m.dram.Store64(head, next)
			} else {
				m.dram.Store64(prev+vNext, next)
			}
			m.freeMu.Lock()
			m.free = append(m.free, pnode)
			m.freeMu.Unlock()
			return true
		}
		prev = n
		prevIsHead = false
	}
	return false
}

// Get implements structures.Map: a pure DRAM traversal, no NVMM access and
// no locks.
func (m *Map) Get(_ int, key uint64) (uint64, bool) {
	head := m.bucketHead(key)
	for n := pmem.Addr(m.dram.Load64(head)); n != pmem.NilAddr; n = pmem.Addr(m.dram.Load64(n + vNext)) {
		if m.dram.Load64(n+vKey) == key {
			return m.dram.Load64(n + vVal), true
		}
	}
	return 0, false
}

// Recover rebuilds the volatile index from live persistent nodes and returns
// the number recovered.
func (m *Map) Recover() int {
	if m.h.Crashed() {
		m.h.Reopen()
	}
	for b := uint64(0); b < m.nBucket; b++ {
		m.dram.Store64(m.heads+pmem.Addr(b*8), 0)
	}
	m.dalloc.SetCursor(pmem.AlignUp(m.heads+pmem.Addr(m.nBucket*8), pmem.LineSize))
	live := 0
	end := m.alloc.Cursor()
	for p := m.h.DataStart(); p+24 <= end; p += pmem.LineSize {
		if m.h.Load64(p+pValid) != validLive {
			continue
		}
		key := m.h.Load64(p + pKey)
		head := m.bucketHead(key)
		n := m.newVNode(key, m.h.Load64(p+pVal), p, pmem.Addr(m.dram.Load64(head)))
		m.dram.Store64(head, uint64(n))
		live++
	}
	return live
}

// PerOp implements structures.Map.
func (m *Map) PerOp(int) {}

// ThreadExit implements structures.Map.
func (m *Map) ThreadExit(int) {}

// Close implements structures.Map.
func (m *Map) Close() {}
