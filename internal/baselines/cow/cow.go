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
	"sync"
	"sync/atomic"
	"time"

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

// root slots used for the persistent epoch record
const (
	rootEpoch = 0
	rootBump  = 1
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
	retire   [][]pmem.Addr // retire[i]: retired i epochs ago (0 = current)
	freeMu   sync.Mutex
	free     []pmem.Addr
	flusher  *pmem.Flusher
}

func newRegion(h *pmem.Heap) *region {
	r := &region{h: h, alloc: pmem.NewBumpAll(h), flusher: h.NewFlusher()}
	r.epoch.Store(1)
	r.retire = [][]pmem.Addr{nil, nil}
	return r
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
	if len(old) > 0 {
		// Scrub in two fenced phases: data records (put/enq) first, then
		// the delete records (tombstones/dequeues) that supersede them. A
		// crash between the phases leaves a dangling delete record, which
		// is harmless; the reverse order could resurrect deleted data.
		scrub := func(wantDelete bool) {
			n := 0
			for _, p := range old {
				kind := r.h.Load64(p + pKind)
				isDelete := kind == kindDel || kind == kindDeq
				if isDelete != wantDelete {
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
		scrub(false)
		scrub(true)
		r.freeMu.Lock()
		r.free = append(r.free, old...)
		r.freeMu.Unlock()
	}

	next := r.epoch.Add(1)
	r.h.SetRoot(rootEpoch, next)
	r.h.SetRoot(rootBump, uint64(r.alloc.Cursor()))
	r.flusher.CLWB(r.h.RootAddr(rootEpoch))
	r.flusher.CLWB(r.h.RootAddr(rootBump))
	r.flusher.SFence()
}

// scan yields every payload in the persistent image belonging to a completed
// epoch (epoch < lastEpoch read from the root record).
func (r *region) scan(visit func(seq, key, value, kind uint64)) {
	h := r.h
	lastEpoch := h.Load64(h.RootAddr(rootEpoch))
	end := pmem.Addr(h.Load64(h.RootAddr(rootBump)))
	if end == 0 {
		return
	}
	for p := h.DataStart(); p+pWords*8 <= end; p += pmem.LineSize {
		ep := h.Load64(p + pEpoch)
		if ep == kindInvalid || ep == 0 || ep >= lastEpoch {
			continue
		}
		visit(h.Load64(p+pSeq), h.Load64(p+pKey), h.Load64(p+pVal), h.Load64(p+pKind))
	}
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
	ck      *ticker
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

// NewMap creates a Montage-style map with a periodic checkpoint every
// interval.
//
// The DRAM index is sized to the data: an index node takes a line, as a
// payload does, removed nodes are recycled and Recover rebuilds the index
// from scratch, so the nodes never outnumber the persistent heap's lines.
func NewMap(h *pmem.Heap, nBucket int, interval time.Duration) *Map {
	dram := pmem.New(pmem.DRAMConfig(int64(nBucket)*8 + pmem.LineSize + h.Size()))
	m := &Map{
		r:       newRegion(h),
		nBucket: uint64(nBucket),
		locks:   make([]sync.Mutex, nBucket),
		dram:    dram,
		dalloc:  pmem.NewBumpAll(dram),
	}
	m.buckets = m.dalloc.Alloc(nBucket * 8)
	if m.buckets == pmem.NilAddr {
		panic("cow: DRAM index heap too small")
	}
	m.ck = startTicker(m.r, interval)
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

// Close stops the checkpointer.
func (m *Map) Close() { m.ck.stop() }

// Checkpoint forces an epoch boundary (tests).
func (m *Map) Checkpoint() { m.r.checkpoint() }

// Recover rebuilds the DRAM index from the persistent payload region and
// returns the number of live keys.
func (m *Map) Recover() int {
	if m.r.h.Crashed() {
		m.r.h.Reopen()
	}
	type best struct {
		seq  uint64
		val  uint64
		kind uint64
	}
	latest := map[uint64]best{}
	maxSeq := uint64(0)
	m.r.scan(func(seq, key, value, kind uint64) {
		if kind != kindPut && kind != kindDel {
			return
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		if b, ok := latest[key]; !ok || seq > b.seq {
			latest[key] = best{seq: seq, val: value, kind: kind}
		}
	})
	for b := uint64(0); b < m.nBucket; b++ {
		m.dram.Store64(m.buckets+pmem.Addr(b*8), 0)
	}
	m.dalloc.SetCursor(pmem.AlignUp(m.buckets+pmem.Addr(m.nBucket*8), pmem.LineSize))
	m.vfree = m.vfree[:0]
	// Note: payload addresses are rebuilt lazily — recovered entries point
	// at fresh payloads so the index stays uniform.
	live := 0
	m.r.epoch.Store(m.r.h.Load64(m.r.h.RootAddr(rootEpoch)))
	m.r.seq.Store(maxSeq)
	m.r.alloc.SetCursor(pmem.AlignUp(pmem.Addr(m.r.h.Load64(m.r.h.RootAddr(rootBump))), pmem.LineSize))
	for key, b := range latest {
		if b.kind != kindPut {
			continue
		}
		bi := structures.HashMix(key) % m.nBucket
		head := m.buckets + pmem.Addr(bi*8)
		p := m.r.newPayload(kindPut, key, b.val)
		n := m.allocVNode(key, p, pmem.Addr(m.dram.Load64(head)))
		m.dram.Store64(head, uint64(n))
		live++
	}
	return live
}

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
	ck     *ticker
}

// NewQueue creates a Montage-style queue with periodic checkpoints. Its DRAM
// list is sized to the data like the map's index: one line per element,
// recycled on dequeue and rebuilt by Recover.
func NewQueue(h *pmem.Heap, interval time.Duration) *Queue {
	dram := pmem.New(pmem.DRAMConfig(h.Size()))
	q := &Queue{r: newRegion(h), dram: dram, dalloc: pmem.NewBumpAll(dram)}
	q.ck = startTicker(q.r, interval)
	return q
}

func (q *Queue) allocQNode(payload pmem.Addr, seq uint64) pmem.Addr {
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
	q.dram.Store64(n, uint64(payload))
	q.dram.Store64(n+8, seq)
	q.dram.Store64(n+16, 0)
	return n
}

// Enqueue implements structures.Queue.
func (q *Queue) Enqueue(th int, v uint64) {
	q.r.gate.RLock()
	defer q.r.gate.RUnlock()
	q.mu.Lock()
	defer q.mu.Unlock()
	p := q.r.newPayload(kindEnq, 0, v)
	n := q.allocQNode(p, q.r.h.Load64(p+pSeq))
	if q.tail == pmem.NilAddr {
		q.head, q.tail = n, n
	} else {
		q.dram.Store64(q.tail+16, uint64(n))
		q.tail = n
	}
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

// Close stops the checkpointer.
func (q *Queue) Close() { q.ck.stop() }

// Checkpoint forces an epoch boundary (tests).
func (q *Queue) Checkpoint() { q.r.checkpoint() }

// Recover rebuilds the queue from enqueue records minus dequeue records,
// ordered by sequence number, and returns its length.
func (q *Queue) Recover() int {
	if q.r.h.Crashed() {
		q.r.h.Reopen()
	}
	type enq struct {
		seq uint64
		val uint64
	}
	var enqs []enq
	deqd := map[uint64]bool{}
	maxSeq := uint64(0)
	q.r.scan(func(seq, key, value, kind uint64) {
		if seq > maxSeq {
			maxSeq = seq
		}
		switch kind {
		case kindEnq:
			enqs = append(enqs, enq{seq: seq, val: value})
		case kindDeq:
			deqd[key] = true // key field holds the consumed sequence
		}
	})
	q.r.epoch.Store(q.r.h.Load64(q.r.h.RootAddr(rootEpoch)))
	q.r.seq.Store(maxSeq)
	q.r.alloc.SetCursor(pmem.AlignUp(pmem.Addr(q.r.h.Load64(q.r.h.RootAddr(rootBump))), pmem.LineSize))
	// Sort by sequence (insertion sort is fine for test-scale recovery;
	// the benchmark never recovers).
	for i := 1; i < len(enqs); i++ {
		for j := i; j > 0 && enqs[j-1].seq > enqs[j].seq; j-- {
			enqs[j-1], enqs[j] = enqs[j], enqs[j-1]
		}
	}
	q.head, q.tail = pmem.NilAddr, pmem.NilAddr
	q.dalloc.Reset()
	q.vfree = q.vfree[:0]
	n := 0
	for _, e := range enqs {
		if deqd[e.seq] {
			continue
		}
		p := q.r.newPayload(kindEnq, 0, e.val)
		node := q.allocQNode(p, q.r.h.Load64(p+pSeq))
		if q.tail == pmem.NilAddr {
			q.head, q.tail = node, node
		} else {
			q.dram.Store64(q.tail+16, uint64(node))
			q.tail = node
		}
		n++
	}
	return n
}

// ticker drives periodic checkpoints on a region.
type ticker struct {
	stopCh chan struct{}
	once   sync.Once
	done   sync.WaitGroup
}

func startTicker(r *region, interval time.Duration) *ticker {
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
				r.checkpoint()
			}
		}
	}()
	return t
}

func (t *ticker) stop() {
	t.once.Do(func() { close(t.stopCh) })
	t.done.Wait()
}
