package structures

import (
	"fmt"
	"sync"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
)

// RespctMap is the hash map of the paper's micro-benchmarks made persistent
// with ResPCT. Like the Synch-framework map the paper ports, each bucket
// holds its entries in-line — two key/value slot pairs — and only spills to
// a chained overflow node when a third key lands in the bucket. In-line
// slots keep allocation off the hot path and make repeated updates hit the
// same cache lines, which is what lets InCLL-based tracking deduplicate so
// well (the paper's ~700k flushed addresses per checkpoint, §5.2).
//
// Every mutable word is an InCLL cell: slot keys and values carry
// write-after-read dependencies across restart points (a slot is read before
// it is claimed or cleared), so §3.3.2 rule (ii) applies. Bucket locks are
// ordinary volatile mutexes: checkpoints only happen at restart points,
// which are never inside critical sections, so lock state needs no recovery
// (§3.3).
//
// Restart point placement follows the paper: one RP after each completed
// operation (PerOp).
type RespctMap struct {
	rt      *core.Runtime
	desc    pmem.Addr // descriptor block: [nBucket, nSeg, seg...]
	nBucket uint64
	segs    []pmem.Addr
	locks   []sync.Mutex
}

const (
	// bucketCells is the per-bucket in-line layout:
	// cell 0: key0, 1: val0, 2: key1, 3: val1, 4: overflow chain head,
	// cell 5: padding to a whole number of cache lines.
	bucketCells = 6

	// segBuckets buckets per segment: the largest count whose block
	// (header + bucket cells) still fits the 2 MiB size class.
	segBuckets = 10917 // 10917*6 cells * 32 B + 64 B header <= 2 MiB

	mapNodeCells = 2 // overflow node: cell 0 next, cell 1 value
	mapNodeRaw   = 1 // word 0: key (write-once)

	rpMapOp uint64 = 0x4d61704f70 // "MapOp": the per-operation restart point
)

// NewRespctMap creates a persistent map with nBucket buckets and publishes
// it under heap root slot rootIdx. Call it once on a fresh runtime;
// reattach after recovery with OpenRespctMap.
func NewRespctMap(rt *core.Runtime, rootIdx, nBucket int) (*RespctMap, error) {
	sys := rt.Sys()
	nSeg := (nBucket + segBuckets - 1) / segBuckets
	desc := rt.Arena().AllocRaw(sys, 2+nSeg)
	if desc == pmem.NilAddr {
		return nil, fmt.Errorf("structures: heap exhausted allocating map descriptor")
	}
	sys.StoreTracked(desc, uint64(nBucket))
	sys.StoreTracked(desc+8, uint64(nSeg))
	segs := make([]pmem.Addr, nSeg)
	for s := 0; s < nSeg; s++ {
		seg := rt.Arena().AllocCells(sys, segBuckets*bucketCells)
		if seg == pmem.NilAddr {
			return nil, fmt.Errorf("structures: heap exhausted allocating bucket segment %d/%d", s, nSeg)
		}
		for c := 0; c < segBuckets*bucketCells; c++ {
			sys.Init(core.Cell(seg, c), 0)
		}
		sys.StoreTracked(desc+pmem.Addr(16+s*8), uint64(seg))
		segs[s] = seg
	}
	sys.Update(rt.RootInCLL(rootIdx), uint64(desc))
	return &RespctMap{
		rt:      rt,
		desc:    desc,
		nBucket: uint64(nBucket),
		segs:    segs,
		locks:   make([]sync.Mutex, nBucket),
	}, nil
}

// OpenRespctMap reattaches to a map published under rootIdx, typically after
// Recover.
func OpenRespctMap(rt *core.Runtime, rootIdx int) (*RespctMap, error) {
	desc := rt.ReadAddr(rt.RootInCLL(rootIdx))
	if desc == pmem.NilAddr {
		return nil, fmt.Errorf("structures: no map registered under root %d", rootIdx)
	}
	h := rt.Heap()
	nBucket := h.Load64(desc)
	nSeg := h.Load64(desc + 8)
	segs := make([]pmem.Addr, nSeg)
	for s := range segs {
		segs[s] = pmem.Addr(h.Load64(desc + pmem.Addr(16+s*8)))
	}
	return &RespctMap{
		rt:      rt,
		desc:    desc,
		nBucket: nBucket,
		segs:    segs,
		locks:   make([]sync.Mutex, nBucket),
	}, nil
}

// bucket returns the address of bucket b's first cell.
func (m *RespctMap) bucket(b uint64) pmem.Addr {
	return m.segs[b/segBuckets] + pmem.Addr((b%segBuckets)*bucketCells*core.CellSize)
}

func (m *RespctMap) slotKey(bkt pmem.Addr, s int) core.InCLL {
	return core.Cell(bkt, s*2)
}

func (m *RespctMap) slotVal(bkt pmem.Addr, s int) core.InCLL {
	return core.Cell(bkt, s*2+1)
}

func (m *RespctMap) overflow(bkt pmem.Addr) core.InCLL { return core.Cell(bkt, 4) }

func (m *RespctMap) nodeNext(n pmem.Addr) core.InCLL  { return core.Cell(n, 0) }
func (m *RespctMap) nodeValue(n pmem.Addr) core.InCLL { return core.Cell(n, 1) }
func (m *RespctMap) nodeKey(n pmem.Addr) pmem.Addr    { return core.RawBase(n, mapNodeCells) }

// insert is the shared body of Insert and InsertIfAbsent.
func (m *RespctMap) insert(th int, key, value uint64, overwrite bool) (uint64, bool) {
	t := m.rt.Thread(th)
	h := m.rt.Heap()
	b := HashMix(key) % m.nBucket
	bkt := m.bucket(b)
	mu := &m.locks[b]
	mu.Lock()
	defer mu.Unlock()

	// Look for the key in the in-line slots and the overflow chain.
	freeSlot := -1
	for s := 0; s < 2; s++ {
		k := m.rt.Read(m.slotKey(bkt, s))
		if k == key {
			if overwrite {
				t.Update(m.slotVal(bkt, s), value)
				return value, false
			}
			return m.rt.Read(m.slotVal(bkt, s)), false
		}
		if k == 0 && freeSlot < 0 {
			freeSlot = s
		}
	}
	for n := m.rt.ReadAddr(m.overflow(bkt)); n != pmem.NilAddr; n = m.rt.ReadAddr(m.nodeNext(n)) {
		if h.Load64(m.nodeKey(n)) == key {
			if overwrite {
				t.Update(m.nodeValue(n), value)
				return value, false
			}
			return m.rt.Read(m.nodeValue(n)), false
		}
	}

	// Absent: claim a free in-line slot, or spill to an overflow node.
	if freeSlot >= 0 {
		t.Update(m.slotVal(bkt, freeSlot), value)
		t.Update(m.slotKey(bkt, freeSlot), key)
		return value, true
	}
	n := m.rt.Arena().Alloc(t, mapNodeCells, mapNodeRaw)
	if n == pmem.NilAddr {
		panic("structures: RespctMap out of persistent memory")
	}
	// The node is fully initialised before it is linked; the link (an
	// InCLL update of the overflow head) is what makes it reachable, and a
	// crash rolls that link back.
	t.Init(m.nodeNext(n), m.rt.Read(m.overflow(bkt)))
	t.Init(m.nodeValue(n), value)
	t.StoreTracked(m.nodeKey(n), key)
	t.UpdateAddr(m.overflow(bkt), n)
	return value, true
}

// Insert implements Map.
func (m *RespctMap) Insert(th int, key, value uint64) bool {
	_, inserted := m.insert(th, key, value, true)
	return inserted
}

// InsertIfAbsent atomically inserts key->value if key is absent and reports
// (current value, inserted). The dedup pipeline uses it to pick a canonical
// owner per content hash.
func (m *RespctMap) InsertIfAbsent(th int, key, value uint64) (uint64, bool) {
	return m.insert(th, key, value, false)
}

// Remove implements Map.
func (m *RespctMap) Remove(th int, key uint64) bool {
	t := m.rt.Thread(th)
	h := m.rt.Heap()
	b := HashMix(key) % m.nBucket
	bkt := m.bucket(b)
	mu := &m.locks[b]
	mu.Lock()
	defer mu.Unlock()
	for s := 0; s < 2; s++ {
		if m.rt.Read(m.slotKey(bkt, s)) == key {
			t.Update(m.slotKey(bkt, s), 0)
			return true
		}
	}
	prev := m.overflow(bkt)
	for n := m.rt.ReadAddr(prev); n != pmem.NilAddr; n = m.rt.ReadAddr(prev) {
		if h.Load64(m.nodeKey(n)) == key {
			t.Update(prev, m.rt.Read(m.nodeNext(n)))
			m.rt.Arena().Free(t, n)
			return true
		}
		prev = m.nodeNext(n)
	}
	return false
}

// Get implements Map.
func (m *RespctMap) Get(th int, key uint64) (uint64, bool) {
	h := m.rt.Heap()
	b := HashMix(key) % m.nBucket
	bkt := m.bucket(b)
	mu := &m.locks[b]
	mu.Lock()
	defer mu.Unlock()
	for s := 0; s < 2; s++ {
		if m.rt.Read(m.slotKey(bkt, s)) == key {
			return m.rt.Read(m.slotVal(bkt, s)), true
		}
	}
	for n := m.rt.ReadAddr(m.overflow(bkt)); n != pmem.NilAddr; n = m.rt.ReadAddr(m.nodeNext(n)) {
		if h.Load64(m.nodeKey(n)) == key {
			return m.rt.Read(m.nodeValue(n)), true
		}
	}
	return 0, false
}

// PerOp places the per-operation restart point.
func (m *RespctMap) PerOp(th int) { m.rt.Thread(th).RP(rpMapOp) }

// ThreadExit implements Map.
func (m *RespctMap) ThreadExit(th int) { m.rt.Thread(th).CheckpointAllow() }

// Close implements Map. Checkpointer lifecycle belongs to the caller.
func (m *RespctMap) Close() {}

// Len counts entries (test helper).
func (m *RespctMap) Len() int {
	total := 0
	for k := range m.Snapshot() {
		_ = k
		total++
	}
	return total
}

// Snapshot returns the logical contents (test/crash-check helper). Callers
// must ensure quiescence.
func (m *RespctMap) Snapshot() map[uint64]uint64 {
	h := m.rt.Heap()
	out := make(map[uint64]uint64)
	for b := uint64(0); b < m.nBucket; b++ {
		bkt := m.bucket(b)
		for s := 0; s < 2; s++ {
			if k := m.rt.Read(m.slotKey(bkt, s)); k != 0 {
				out[k] = m.rt.Read(m.slotVal(bkt, s))
			}
		}
		for n := m.rt.ReadAddr(m.overflow(bkt)); n != pmem.NilAddr; n = m.rt.ReadAddr(m.nodeNext(n)) {
			out[h.Load64(m.nodeKey(n))] = m.rt.Read(m.nodeValue(n))
		}
	}
	return out
}
