// Package friedman implements a durable lock-free FIFO queue in the style of
// Friedman et al. (PPoPP'18), the paper's lock-free queue comparator. It is
// a Michael-Scott queue whose nodes live in NVMM: enqueue persists the new
// node before swinging the tail, and publishes the link with a persisted
// CAS; dequeue claims a node by CAS-ing a dequeuer mark into it and persists
// the mark before returning the value. Head and tail are volatile hints —
// recovery rebuilds the queue by walking the sentinel chain and skipping
// claimed nodes.
//
// Node pointers are version-tagged (16-bit counter in the upper bits) so
// recycled nodes cannot cause ABA, and a node's claim word carries the
// node's generation, bumped at every reuse, so a dequeuer that stalled on a
// node cannot claim (or take the value of) a later incarnation of it.
//
//respct:allow rawstore — durable lock-free queue persists nodes and links explicitly (PPoPP'18 scheme); bypasses ResPCT tracking by design
package friedman

import (
	"sync"
	"sync/atomic"

	"github.com/respct/respct/internal/pmem"
)

// node layout (words): [next(tagged), value, claimed]. claimed is
// [48-bit generation | 16-bit dequeuer mark]; a zero mark means unclaimed.
const (
	nNext    = 0
	nVal     = 8
	nClaimed = 16

	markBits = 16
	markMask = 1<<markBits - 1
)

// tagged pointers: [16-bit version | 48-bit address]
const tagShift = 48

func tagOf(v uint64) uint64     { return v >> tagShift }
func addrOf(v uint64) pmem.Addr { return pmem.Addr(v & (1<<tagShift - 1)) }
func mkTagged(a pmem.Addr, tag uint64) uint64 {
	return (tag&0xFFFF)<<tagShift | uint64(a)
}

// Queue is the durable lock-free FIFO.
type Queue struct {
	h     *pmem.Heap
	alloc *pmem.Bump
	fls   []*pmem.Flusher

	head atomic.Uint64 // tagged node addr (sentinel)
	tail atomic.Uint64 // tagged node addr

	rootHead int // heap root slot persisting the sentinel for recovery

	freeMu sync.Mutex
	free   []pmem.Addr
	// retired nodes wait one recycling round before reuse to keep the
	// version-tag defence effective even under heavy recycling
	retired []pmem.Addr
}

// NewQueue creates an empty durable queue for `threads` workers, persisting
// its sentinel pointer in heap root slot rootIdx.
func NewQueue(h *pmem.Heap, threads, rootIdx int) *Queue {
	q := &Queue{h: h, alloc: pmem.NewBumpAll(h), fls: make([]*pmem.Flusher, threads), rootHead: rootIdx}
	for i := range q.fls {
		q.fls[i] = h.NewFlusher()
	}
	s := q.newNode(0)
	f := h.NewFlusher()
	f.Persist(s)
	h.SetRoot(rootIdx, uint64(s))
	f.Persist(h.RootAddr(rootIdx))
	q.head.Store(mkTagged(s, 0))
	q.tail.Store(mkTagged(s, 0))
	return q
}

// newNode returns an unclaimed node holding v, of a generation no earlier
// incarnation of the same block had.
func (q *Queue) newNode(v uint64) pmem.Addr {
	q.freeMu.Lock()
	var n pmem.Addr
	if l := len(q.free); l > 0 {
		n = q.free[l-1]
		q.free = q.free[:l-1]
	}
	q.freeMu.Unlock()
	if n == pmem.NilAddr {
		n = q.alloc.Alloc(24)
		if n == pmem.NilAddr {
			panic("friedman: out of persistent memory")
		}
	}
	// Preserve the old tag in next so recycled nodes keep advancing their
	// version counter.
	oldTag := tagOf(q.h.Load64(n + nNext))
	q.h.Store64(n+nNext, mkTagged(0, oldTag+1))
	q.h.Store64(n+nVal, v)
	q.h.Store64(n+nClaimed, (q.h.Load64(n+nClaimed)>>markBits+1)<<markBits)
	return n
}

func (q *Queue) retire(n pmem.Addr) {
	q.freeMu.Lock()
	q.retired = append(q.retired, n)
	if len(q.retired) >= 64 {
		// Before recycling, advance the persisted sentinel hint past every
		// retired node (they are all behind the current head), so the
		// recovery walk can never start at or traverse a recycled node.
		hint := addrOf(q.head.Load())
		q.h.SetRoot(q.rootHead, uint64(hint))
		f := q.h.NewFlusher()
		f.Persist(q.h.RootAddr(q.rootHead))
		q.free = append(q.free, q.retired...)
		q.retired = q.retired[:0]
	}
	q.freeMu.Unlock()
}

// Enqueue implements structures.Queue.
func (q *Queue) Enqueue(th int, v uint64) {
	f := q.fls[th]
	n := q.newNode(v)
	f.Persist(n) // node durable before it becomes reachable
	for {
		tailTagged := q.tail.Load()
		tail := addrOf(tailTagged)
		nextTagged := q.h.Load64(tail + nNext)
		if addrOf(nextTagged) == pmem.NilAddr {
			if q.h.CAS64(tail+nNext, nextTagged, mkTagged(n, tagOf(nextTagged)+1)) {
				f.Persist(tail + nNext) // persist the link (Friedman's durability point)
				q.tail.CompareAndSwap(tailTagged, mkTagged(n, tagOf(tailTagged)+1))
				return
			}
		} else {
			// Help swing the tail, persisting the link we observed first.
			f.Persist(tail + nNext)
			q.tail.CompareAndSwap(tailTagged, mkTagged(addrOf(nextTagged), tagOf(tailTagged)+1))
		}
	}
}

// Dequeue implements structures.Queue. Everything it learns about head's
// successor — that it exists, its claim word, its value — is read between
// two loads of the versioned head pointer and trusted only if the two agree:
// a node is retired (and so recycled) only after head has moved past it, so
// an unchanged head proves the reads all saw one incarnation of the node.
// The claim CAS then expects that incarnation's exact claim word, which
// fails if the node was claimed or recycled in the meantime.
func (q *Queue) Dequeue(th int) (uint64, bool) {
	f := q.fls[th]
	for {
		headTagged := q.head.Load()
		head := addrOf(headTagged)
		next := addrOf(q.h.Load64(head + nNext))
		var claim, v uint64
		if next != pmem.NilAddr {
			claim = q.h.Load64(next + nClaimed)
			v = q.h.Load64(next + nVal)
		}
		if q.head.Load() != headTagged {
			continue
		}
		if next == pmem.NilAddr {
			return 0, false
		}
		if claim&markMask == 0 && q.h.CAS64(next+nClaimed, claim, claim|uint64(th+1)) {
			f.Persist(next + nClaimed) // dequeue durable
			if q.head.CompareAndSwap(headTagged, mkTagged(next, tagOf(headTagged)+1)) {
				q.retire(head) // old sentinel is unreachable
			}
			return v, true
		}
		// Claimed by someone else: advance head past it.
		q.head.CompareAndSwap(headTagged, mkTagged(next, tagOf(headTagged)+1))
	}
}

// Recover rebuilds the volatile head/tail from the persisted sentinel chain
// and returns the queue length. (Nodes recycled before the crash are only
// reachable if still linked, so the walk is safe.)
func (q *Queue) Recover() int {
	if q.h.Crashed() {
		q.h.Reopen()
	}
	s := pmem.Addr(q.h.Load64(q.h.RootAddr(q.rootHead)))
	// Skip claimed nodes at the front.
	head := s
	count := 0
	for {
		next := addrOf(q.h.Load64(head + nNext))
		if next == pmem.NilAddr {
			break
		}
		if q.h.Load64(next+nClaimed)&markMask != 0 {
			head = next
			continue
		}
		break
	}
	tail := head
	for {
		next := addrOf(q.h.Load64(tail + nNext))
		if next == pmem.NilAddr {
			break
		}
		if q.h.Load64(next+nClaimed)&markMask == 0 {
			count++
		}
		tail = next
	}
	q.head.Store(mkTagged(head, 0))
	q.tail.Store(mkTagged(tail, 0))
	q.freeMu.Lock()
	q.free = q.free[:0]
	q.retired = q.retired[:0]
	q.freeMu.Unlock()
	return count
}

// PerOp implements structures.Queue.
func (q *Queue) PerOp(int) {}

// ThreadExit implements structures.Queue.
func (q *Queue) ThreadExit(int) {}

// Close implements structures.Queue.
func (q *Queue) Close() {}
