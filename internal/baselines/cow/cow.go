// Package cow implements a Montage-style baseline (Wen et al., ICPP'21):
// buffered durable linearizability through copy-on-write payloads. Every
// update allocates a fresh payload block in NVMM carrying an epoch tag and a
// global sequence number; indexes and pointers stay in DRAM, and recovery
// rebuilds them by scanning the payload region, keeping only payloads from
// completed epochs (newest sequence number per key wins; tombstones delete;
// for the queue, enqueue records minus dequeue records ordered by sequence —
// the paper's footnote 3).
//
// The two characteristic costs the paper attributes to Montage both appear
// here: every update stresses the allocator, and some structures need extra
// metadata maintained inside the critical section (the queue's global
// sequence number).
//
//respct:allow rawstore — Montage-style COW baseline persists payload blocks under its own epoch/fence discipline; ResPCT tracking does not apply
package cow

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// payload block layout (words): [epoch, seq, key, value, kind]
const (
	pEpoch = 0
	pSeq   = 8
	pKey   = 16
	pVal   = 24
	pKind  = 32
	pWords = 5

	kindPut     = 1
	kindDel     = 2
	kindEnq     = 3
	kindDeq     = 4
	kindInvalid = ^uint64(0)
)

// The epoch record is one root line, so a checkpoint commits it with one
// write-back: word 0 is the first epoch not yet complete, word 1 the bump
// cursor at its start. Payloads of complete epochs lie below the cursor.
const (
	recEpoch = 0
	recBump  = 8
)

// region manages payload allocation, per-epoch flush lists, and deferred
// reclamation. All methods that mutate shared state are called with the
// owner structure's operation gate held.
type region struct {
	h     *pmem.Heap
	alloc *pmem.Bump

	gate sync.RWMutex // readers: ops; writer: checkpoint

	epoch    atomic.Uint64
	seq      atomic.Uint64
	freshMu  sync.Mutex
	fresh    []pmem.Addr // payloads allocated in the current epoch
	retireMu sync.Mutex
	retire   [2][]pmem.Addr // retire[i]: retired i epochs ago (0 = current)
	freeMu   sync.Mutex
	free     []pmem.Addr
	flusher  *pmem.Flusher
}

// newRegion formats an empty region: epoch 1 starts at the heap's first
// line, and the record saying so is durable before any payload is written.
func newRegion(h *pmem.Heap) *region {
	r := &region{h: h, alloc: pmem.NewBumpAll(h), flusher: h.NewFlusher()}
	r.commit(1)
	return r
}

// commit persists the epoch record: epoch starts now, at the bump cursor.
func (r *region) commit(epoch uint64) {
	r.epoch.Store(epoch)
	rec := r.h.RootAddr(0)
	r.h.Store64(rec+recEpoch, epoch)
	r.h.Store64(rec+recBump, uint64(r.alloc.Cursor()))
	r.flusher.Persist(rec)
}

// newPayload allocates and fills a payload block (the per-update allocation
// stress). It is tracked for flushing at the next checkpoint.
func (r *region) newPayload(kind, key, value uint64) pmem.Addr {
	r.freeMu.Lock()
	var p pmem.Addr
	if n := len(r.free); n > 0 {
		p = r.free[n-1]
		r.free = r.free[:n-1]
	}
	r.freeMu.Unlock()
	if p == pmem.NilAddr {
		p = r.alloc.Alloc(pWords * 8)
		if p == pmem.NilAddr {
			panic("cow: out of persistent memory")
		}
	}
	seq := r.seq.Add(1)
	h := r.h
	h.Store64(p+pSeq, seq)
	h.Store64(p+pKey, key)
	h.Store64(p+pVal, value)
	h.Store64(p+pKind, kind)
	h.Store64(p+pEpoch, r.epoch.Load()) // epoch last: recovery trusts it
	r.freshMu.Lock()
	r.fresh = append(r.fresh, p)
	r.freshMu.Unlock()
	return p
}

// retirePayload schedules p for reclamation once the dequeue/overwrite that
// retired it has been covered by a checkpoint.
func (r *region) retirePayload(p pmem.Addr) {
	r.retireMu.Lock()
	r.retire[0] = append(r.retire[0], p)
	r.retireMu.Unlock()
}

// checkpoint flushes the epoch's fresh payloads, persists the epoch record,
// and recycles payloads retired two epochs ago (safe: whatever superseded
// them is durable by now). Invalidated blocks are scrubbed so a recovery
// scan cannot resurrect them.
func (r *region) checkpoint() {
	r.gate.Lock()
	defer r.gate.Unlock()

	for _, p := range r.fresh {
		r.flusher.CLWB(p)
	}
	r.flusher.SFence()
	r.fresh = r.fresh[:0]

	old := r.retire[1]
	r.retire[1] = r.retire[0]
	r.retire[0] = nil
	r.scrub(old)
	r.commit(r.epoch.Load() + 1)
}

// record is a payload of a complete epoch, found by openRegion's scan.
type record struct {
	at                    pmem.Addr
	seq, key, value, kind uint64
}

// openRegion rebuilds a region from the persistent image: the epoch and the
// bump cursor come from the epoch record, and the scan below the cursor
// returns every payload of a complete epoch, oldest sequence number first.
// Payloads of the failed epoch are scrubbed, so a later checkpoint cannot
// complete them; the caller scrubs the records it finds superseded.
func openRegion(h *pmem.Heap) (*region, []record) {
	if h.Crashed() {
		h.Reopen()
	}
	rec := h.RootAddr(0)
	failed, end := h.Load64(rec+recEpoch), pmem.Addr(h.Load64(rec+recBump))
	r := &region{h: h, alloc: pmem.NewBumpAll(h), flusher: h.NewFlusher()}
	r.alloc.SetCursor(end)
	r.epoch.Store(failed)
	var live []record
	var doomed []pmem.Addr
	for p := h.DataStart(); p < end; p += pmem.LineSize {
		switch ep := h.Load64(p + pEpoch); {
		case ep == kindInvalid || ep == 0:
		case ep >= failed:
			doomed = append(doomed, p)
		default:
			live = append(live, record{p, h.Load64(p + pSeq), h.Load64(p + pKey), h.Load64(p + pVal), h.Load64(p + pKind)})
		}
	}
	r.scrub(doomed)
	slices.SortFunc(live, func(a, b record) int { return cmp.Compare(a.seq, b.seq) })
	if n := len(live); n > 0 {
		r.seq.Store(live[n-1].seq)
	}
	return r, live
}

// scrub invalidates the payloads at ps durably, data records (put/enq)
// under one fence and then the delete records (tombstones/dequeues) that
// supersede them under another: a crash between the two leaves a dangling
// delete record, which is harmless; the reverse order could resurrect
// deleted data. The blocks are free for reuse once scrubbed.
func (r *region) scrub(ps []pmem.Addr) {
	for _, wantDelete := range []bool{false, true} {
		n := 0
		for _, p := range ps {
			kind := r.h.Load64(p + pKind)
			if isDelete := kind == kindDel || kind == kindDeq; isDelete != wantDelete {
				continue
			}
			r.h.Store64(p+pEpoch, kindInvalid)
			r.flusher.CLWB(p)
			n++
		}
		if n > 0 {
			r.flusher.SFence()
		}
	}
	r.freeMu.Lock()
	r.free = append(r.free, ps...)
	r.freeMu.Unlock()
}

// Map is the Montage-style hash map: a DRAM index over NVMM payloads. The
// index itself lives in a DRAM-latency simulated heap so every system in
// the comparison pays the same simulated-memory cost per access.
// Index node layout (words): [key, payload, next].
type Map struct {
	r       *region
	nBucket uint64
	locks   []sync.Mutex
	dram    *pmem.Heap
	dalloc  *pmem.Bump
	buckets pmem.Addr // array of node addrs in the DRAM heap
	freeMu  sync.Mutex
	vfree   []pmem.Addr
}

func (m *Map) allocVNode(key uint64, payload, next pmem.Addr) pmem.Addr {
	m.freeMu.Lock()
	var n pmem.Addr
	if l := len(m.vfree); l > 0 {
		n = m.vfree[l-1]
		m.vfree = m.vfree[:l-1]
	}
	m.freeMu.Unlock()
	if n == pmem.NilAddr {
		n = m.dalloc.Alloc(24)
		if n == pmem.NilAddr {
			panic("cow: DRAM index heap exhausted")
		}
	}
	m.dram.Store64(n, key)
	m.dram.Store64(n+8, uint64(payload))
	m.dram.Store64(n+16, uint64(next))
	return n
}

// NewMap formats h as an empty Montage-style map; the caller drives its
// checkpoints.
//
// The DRAM index is sized to the data: an index node takes a line, as a
// payload does, and removed nodes are recycled, so the nodes never
// outnumber the persistent heap's lines.
func NewMap(h *pmem.Heap, nBucket int) *Map {
	return newMap(newRegion(h), nBucket)
}

func newMap(r *region, nBucket int) *Map {
	dram := pmem.New(pmem.DRAMConfig(int64(nBucket)*8 + pmem.LineSize + r.h.Size()))
	m := &Map{
		r:       r,
		nBucket: uint64(nBucket),
		locks:   make([]sync.Mutex, nBucket),
		dram:    dram,
		dalloc:  pmem.NewBumpAll(dram),
	}
	m.buckets = m.dalloc.Alloc(nBucket * 8)
	if m.buckets == pmem.NilAddr {
		panic("cow: DRAM index heap too small")
	}
	return m
}

// OpenMap rebuilds a map from the persistent image of h, rebooting h if it
// is still down: the newest record of each key wins, and the index points
// at the winning puts' payloads. Every superseded record is scrubbed.
func OpenMap(h *pmem.Heap, nBucket int) *Map {
	r, recs := openRegion(h)
	m := newMap(r, nBucket)
	newest := map[uint64]record{}
	var superseded []pmem.Addr
	for _, rec := range recs {
		if rec.kind != kindPut && rec.kind != kindDel {
			continue
		}
		if old, ok := newest[rec.key]; ok {
			superseded = append(superseded, old.at)
		}
		newest[rec.key] = rec
	}
	for key, rec := range newest {
		if rec.kind == kindDel {
			superseded = append(superseded, rec.at)
			continue
		}
		head := m.buckets + pmem.Addr(structures.HashMix(key)%m.nBucket*8)
		m.dram.Store64(head, uint64(m.allocVNode(key, rec.at, pmem.Addr(m.dram.Load64(head)))))
	}
	r.scrub(superseded)
	return m
}

// Insert implements structures.Map.
func (m *Map) Insert(th int, key, value uint64) bool {
	m.r.gate.RLock()
	defer m.r.gate.RUnlock()
	b := structures.HashMix(key) % m.nBucket
	m.locks[b].Lock()
	defer m.locks[b].Unlock()
	p := m.r.newPayload(kindPut, key, value)
	head := m.buckets + pmem.Addr(b*8)
	for n := pmem.Addr(m.dram.Load64(head)); n != pmem.NilAddr; n = pmem.Addr(m.dram.Load64(n + 16)) {
		if m.dram.Load64(n) == key {
			m.r.retirePayload(pmem.Addr(m.dram.Load64(n + 8)))
			m.dram.Store64(n+8, uint64(p))
			return false
		}
	}
	n := m.allocVNode(key, p, pmem.Addr(m.dram.Load64(head)))
	m.dram.Store64(head, uint64(n))
	return true
}

// Remove implements structures.Map.
func (m *Map) Remove(th int, key uint64) bool {
	m.r.gate.RLock()
	defer m.r.gate.RUnlock()
	b := structures.HashMix(key) % m.nBucket
	m.locks[b].Lock()
	defer m.locks[b].Unlock()
	prev := m.buckets + pmem.Addr(b*8)
	for n := pmem.Addr(m.dram.Load64(prev)); n != pmem.NilAddr; n = pmem.Addr(m.dram.Load64(n + 16)) {
		if m.dram.Load64(n) == key {
			// A delete is itself a durable event: it needs a tombstone
			// payload so recovery knows the put was superseded.
			m.r.retirePayload(pmem.Addr(m.dram.Load64(n + 8)))
			tomb := m.r.newPayload(kindDel, key, 0)
			m.r.retirePayload(tomb) // reclaimed once covered by a checkpoint
			m.dram.Store64(prev, m.dram.Load64(n+16))
			m.freeMu.Lock()
			m.vfree = append(m.vfree, n)
			m.freeMu.Unlock()
			return true
		}
		prev = n + 16
	}
	return false
}

// Get implements structures.Map: the index walk is DRAM traffic, the value
// read is one NVMM payload access.
func (m *Map) Get(th int, key uint64) (uint64, bool) {
	m.r.gate.RLock()
	defer m.r.gate.RUnlock()
	b := structures.HashMix(key) % m.nBucket
	m.locks[b].Lock()
	defer m.locks[b].Unlock()
	head := m.buckets + pmem.Addr(b*8)
	for n := pmem.Addr(m.dram.Load64(head)); n != pmem.NilAddr; n = pmem.Addr(m.dram.Load64(n + 16)) {
		if m.dram.Load64(n) == key {
			return m.r.h.Load64(pmem.Addr(m.dram.Load64(n+8)) + pVal), true
		}
	}
	return 0, false
}

// PerOp implements structures.Map.
func (m *Map) PerOp(int) {}

// ThreadExit implements structures.Map.
func (m *Map) ThreadExit(int) {}

// Close implements structures.Map.
func (m *Map) Close() {}

// Checkpoint ends the epoch: every completed operation becomes durable.
func (m *Map) Checkpoint() { m.r.checkpoint() }

// Queue is the Montage-style FIFO: a DRAM list of payload addresses, with
// the global sequence number updated inside the critical section (the extra
// metadata cost the paper calls out). The DRAM list lives in a simulated
// DRAM-latency heap; node layout (words): [payload, seq, next].
type Queue struct {
	r      *region
	mu     sync.Mutex
	dram   *pmem.Heap
	dalloc *pmem.Bump
	head   pmem.Addr
	tail   pmem.Addr
	vfree  []pmem.Addr
}

// NewQueue formats h as an empty Montage-style queue; the caller drives its
// checkpoints. Its DRAM list is sized to the data like the map's index: one
// line per element, recycled on dequeue.
func NewQueue(h *pmem.Heap) *Queue {
	return newQueue(newRegion(h))
}

func newQueue(r *region) *Queue {
	dram := pmem.New(pmem.DRAMConfig(r.h.Size()))
	return &Queue{r: r, dram: dram, dalloc: pmem.NewBumpAll(dram)}
}

// OpenQueue rebuilds a queue from the persistent image of h, rebooting h if
// it is still down: the enqueue records no dequeue record consumed, in
// sequence order, relinked where they lie. Every consumed enqueue record
// and every dequeue record is scrubbed.
func OpenQueue(h *pmem.Heap) *Queue {
	r, recs := openRegion(h)
	q := newQueue(r)
	consumed := map[uint64]bool{}
	var superseded []pmem.Addr
	for _, rec := range recs {
		if rec.kind == kindDeq {
			consumed[rec.key] = true // key field holds the consumed sequence
			superseded = append(superseded, rec.at)
		}
	}
	for _, rec := range recs {
		switch {
		case rec.kind != kindEnq:
		case consumed[rec.seq]:
			superseded = append(superseded, rec.at)
		default:
			q.link(rec.at, rec.seq)
		}
	}
	r.scrub(superseded)
	return q
}

// link appends a DRAM node for the payload at p, of sequence number seq.
func (q *Queue) link(p pmem.Addr, seq uint64) {
	var n pmem.Addr
	if l := len(q.vfree); l > 0 {
		n = q.vfree[l-1]
		q.vfree = q.vfree[:l-1]
	} else {
		n = q.dalloc.Alloc(24)
		if n == pmem.NilAddr {
			panic("cow: DRAM index heap exhausted")
		}
	}
	q.dram.Store64(n, uint64(p))
	q.dram.Store64(n+8, seq)
	q.dram.Store64(n+16, 0)
	if q.tail == pmem.NilAddr {
		q.head = n
	} else {
		q.dram.Store64(q.tail+16, uint64(n))
	}
	q.tail = n
}

// Enqueue implements structures.Queue.
func (q *Queue) Enqueue(th int, v uint64) {
	q.r.gate.RLock()
	defer q.r.gate.RUnlock()
	q.mu.Lock()
	defer q.mu.Unlock()
	p := q.r.newPayload(kindEnq, 0, v)
	q.link(p, q.r.h.Load64(p+pSeq))
}

// Dequeue implements structures.Queue.
func (q *Queue) Dequeue(th int) (uint64, bool) {
	q.r.gate.RLock()
	defer q.r.gate.RUnlock()
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.head
	if n == pmem.NilAddr {
		return 0, false
	}
	payload := pmem.Addr(q.dram.Load64(n))
	v := q.r.h.Load64(payload + pVal)
	// Durable dequeue record referencing the consumed element's sequence.
	deq := q.r.newPayload(kindDeq, q.dram.Load64(n+8), 0)
	q.r.retirePayload(payload)
	q.r.retirePayload(deq)
	q.head = pmem.Addr(q.dram.Load64(n + 16))
	if q.head == pmem.NilAddr {
		q.tail = pmem.NilAddr
	}
	q.vfree = append(q.vfree, n)
	return v, true
}

// PerOp implements structures.Queue.
func (q *Queue) PerOp(int) {}

// ThreadExit implements structures.Queue.
func (q *Queue) ThreadExit(int) {}

// Close implements structures.Queue.
func (q *Queue) Close() {}

// Checkpoint ends the epoch: every completed operation becomes durable.
func (q *Queue) Checkpoint() { q.r.checkpoint() }
