// Package dali implements a Dalí-style periodically persistent hash map
// (Nawab et al., DISC'17), the checkpoint-based hash-table comparator of the
// paper's micro-benchmarks. Each key's record keeps two in-line versioned
// values: updates within the current epoch overwrite the newest version;
// the first update of an epoch demotes the newest version to the backup
// slot — all within the record's single cache line, so PCSO orders value
// and version tag without flushes (the in-bucket versioning that InCLL later
// generalised). A periodic checkpoint flushes the records touched during
// the epoch and advances the persistent epoch; recovery demotes versions
// tagged with the failed epoch.
//
// Structural changes (inserting a record for a new key) flush the record
// before linking it, so a recovered chain never dangles.
//
//respct:allow rawstore — Dalí baseline orders its in-line versions with its own PCSO flushes; bypasses ResPCT tracking by design
package dali

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// record layout (one cache line, words):
// [key, v1, e1, f1, v2, e2, f2, next]
// (v1,e1,f1) newest version: value, epoch, flags; (v2,e2,f2) backup version.
const (
	rKey  = 0
	rV1   = 8
	rE1   = 16
	rF1   = 24
	rV2   = 32
	rE2   = 40
	rF2   = 48
	rNext = 56

	flagPresent = 1
	flagDeleted = 2

	rootEpoch = 0
)

// Map is the Dalí-style hash map.
type Map struct {
	h       *pmem.Heap
	alloc   *pmem.Bump
	buckets pmem.Addr
	nBucket uint64
	locks   []sync.Mutex
	epoch   atomic.Uint64

	gate     sync.RWMutex
	touched  []map[pmem.Addr]struct{} // per-thread records dirtied this epoch
	flusher  *pmem.Flusher
	flushers []*pmem.Flusher // per-thread, for structural inserts
	ck       *ticker
}

// NewMap creates a Dalí-style map for `threads` workers, checkpointing
// every interval.
func NewMap(h *pmem.Heap, nBucket, threads int, interval time.Duration) *Map {
	m := &Map{
		h:       h,
		alloc:   pmem.NewBumpAll(h),
		nBucket: uint64(nBucket),
		locks:   make([]sync.Mutex, nBucket),
		touched: make([]map[pmem.Addr]struct{}, threads),
		flusher: h.NewFlusher(),
	}
	m.flushers = make([]*pmem.Flusher, threads)
	for i := range m.touched {
		m.touched[i] = map[pmem.Addr]struct{}{}
		m.flushers[i] = h.NewFlusher()
	}
	m.buckets = m.alloc.Alloc(nBucket * 8)
	if m.buckets == pmem.NilAddr {
		panic("dali: heap too small")
	}
	m.epoch.Store(1)
	m.ck = startTicker(m, interval)
	return m
}

func (m *Map) bucket(key uint64) (pmem.Addr, *sync.Mutex, int) {
	b := structures.HashMix(key) % m.nBucket
	return m.buckets + pmem.Addr(b*8), &m.locks[b], int(b)
}

// writeVersion applies an update or delete to a record under its bucket
// lock: first touch per epoch demotes v1 to the backup slot.
func (m *Map) writeVersion(th int, rec pmem.Addr, value, flags uint64) {
	h := m.h
	epoch := m.epoch.Load()
	if h.Load64(rec+rE1) != epoch {
		h.Store64(rec+rV2, h.Load64(rec+rV1))
		h.Store64(rec+rE2, h.Load64(rec+rE1))
		h.Store64(rec+rF2, h.Load64(rec+rF1))
		h.Store64(rec+rE1, epoch)
		m.touched[th][rec] = struct{}{}
	}
	h.Store64(rec+rV1, value)
	h.Store64(rec+rF1, flags)
}

func (m *Map) findRecord(head pmem.Addr, key uint64) pmem.Addr {
	for r := pmem.Addr(m.h.Load64(head)); r != pmem.NilAddr; r = pmem.Addr(m.h.Load64(r + rNext)) {
		if m.h.Load64(r+rKey) == key {
			return r
		}
	}
	return pmem.NilAddr
}

// Insert implements structures.Map.
func (m *Map) Insert(th int, key, value uint64) bool {
	m.gate.RLock()
	defer m.gate.RUnlock()
	head, mu, _ := m.bucket(key)
	mu.Lock()
	defer mu.Unlock()
	if r := m.findRecord(head, key); r != pmem.NilAddr {
		present := m.h.Load64(r+rF1) == flagPresent
		m.writeVersion(th, r, value, flagPresent)
		return !present
	}
	// New key: a fresh record is flushed before it is linked so recovery
	// never follows a pointer to unwritten NVMM.
	r := m.alloc.Alloc(64)
	if r == pmem.NilAddr {
		panic("dali: out of memory")
	}
	h := m.h
	h.Store64(r+rKey, key)
	h.Store64(r+rV1, value)
	h.Store64(r+rE1, m.epoch.Load())
	h.Store64(r+rF1, flagPresent)
	h.Store64(r+rV2, 0)
	h.Store64(r+rE2, 0)
	h.Store64(r+rF2, 0)
	h.Store64(r+rNext, h.Load64(head))
	m.flushers[th].Persist(r)
	h.Store64(head, uint64(r))
	m.touched[th][head] = struct{}{}
	m.touched[th][r] = struct{}{}
	return true
}

// Remove implements structures.Map: a versioned tombstone, not an unlink
// (records persist so the backup version can be recovered).
func (m *Map) Remove(th int, key uint64) bool {
	m.gate.RLock()
	defer m.gate.RUnlock()
	head, mu, _ := m.bucket(key)
	mu.Lock()
	defer mu.Unlock()
	r := m.findRecord(head, key)
	if r == pmem.NilAddr || m.h.Load64(r+rF1) != flagPresent {
		return false
	}
	m.writeVersion(th, r, 0, flagDeleted)
	return true
}

// Get implements structures.Map.
func (m *Map) Get(th int, key uint64) (uint64, bool) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	head, mu, _ := m.bucket(key)
	mu.Lock()
	defer mu.Unlock()
	r := m.findRecord(head, key)
	if r == pmem.NilAddr || m.h.Load64(r+rF1) != flagPresent {
		return 0, false
	}
	return m.h.Load64(r + rV1), true
}

// Checkpoint flushes every record touched in the epoch and advances the
// persistent epoch counter.
func (m *Map) Checkpoint() {
	m.gate.Lock()
	defer m.gate.Unlock()
	for th := range m.touched {
		for rec := range m.touched[th] {
			m.flusher.CLWB(rec)
		}
		clear(m.touched[th])
	}
	m.flusher.SFence()
	next := m.epoch.Add(1)
	m.h.SetRoot(rootEpoch, next)
	m.flusher.Persist(m.h.RootAddr(rootEpoch))
}

// Recover demotes versions written during the failed epoch and returns the
// number of records rolled back.
func (m *Map) Recover() int {
	if m.h.Crashed() {
		m.h.Reopen()
	}
	failed := m.h.Load64(m.h.RootAddr(rootEpoch))
	if failed == 0 {
		failed = 1
	}
	rolled := 0
	h := m.h
	for b := uint64(0); b < m.nBucket; b++ {
		head := m.buckets + pmem.Addr(b*8)
		for r := pmem.Addr(h.Load64(head)); r != pmem.NilAddr; r = pmem.Addr(h.Load64(r + rNext)) {
			if h.Load64(r+rE1) == failed {
				h.Store64(r+rV1, h.Load64(r+rV2))
				h.Store64(r+rE1, h.Load64(r+rE2))
				h.Store64(r+rF1, h.Load64(r+rF2))
				rolled++
			}
		}
	}
	m.epoch.Store(failed)
	for th := range m.touched {
		clear(m.touched[th])
	}
	return rolled
}

// PerOp implements structures.Map.
func (m *Map) PerOp(int) {}

// ThreadExit implements structures.Map.
func (m *Map) ThreadExit(int) {}

// Close stops the checkpointer.
func (m *Map) Close() { m.ck.stop() }

type ticker struct {
	stopCh chan struct{}
	once   sync.Once
	done   sync.WaitGroup
}

func startTicker(m *Map, interval time.Duration) *ticker {
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
				m.Checkpoint()
			}
		}
	}()
	return t
}

func (t *ticker) stop() {
	t.once.Do(func() { close(t.stopCh) })
	t.done.Wait()
}
