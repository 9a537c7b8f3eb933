// Package durable implements the durably linearizable comparators of the
// paper's Figs. 8 and 9 — UndoLog, Clobber-NVM, RedoLog, Trinity and Quadra
// — as four policies over one hash map and one queue.
//
// The systems differ only in what happens around a load and a store, so the
// map and the queue are written once against a failure-atomic section whose
// Commit makes the operation durable before it returns (§2.2, §5.1). A
// Policy supplies the section and its crash recovery.
package durable

import (
	"sync"

	"github.com/respct/respct/internal/pmem"
)

// Policy selects how an operation becomes failure-atomic.
type Policy int

const (
	// UndoLog persists an undo entry before every store (NV-Heaps style).
	UndoLog Policy = iota
	// Clobber logs only write-after-read words (Clobber-NVM, ASPLOS'21).
	Clobber
	// RedoLog buffers the stores in DRAM and redirects loads through them
	// (Mnemosyne/SoftWrAP style) until Commit writes them home.
	RedoLog
	// InCLL keeps each logged word's undo copy in the word's own cache line
	// (Trinity/Quadra, PPoPP'21) and fences only at Commit.
	InCLL
)

// section is one thread's failure-atomic section: Begin, loads and stores,
// then Commit, or Abort when nothing was stored. Loads outside it read the heap.
type section interface {
	Begin()
	Load(a pmem.Addr) uint64     // a logged or a raw word
	Store(a pmem.Addr, v uint64) // a logged word the operation may have read
	Init(a pmem.Addr, v uint64)  // a logged word of a node no one reaches yet
	Raw(a pmem.Addr, v uint64)   // a raw word of such a node: a key, a value
	Commit()
	Abort()
	recover() int // after a crash: undo or finish the torn operation
}

// logArea is a thread's persistent log region (an InCLL commit record is
// one word) and its flusher. Its Begin and Abort do nothing and its Load
// reads the heap; a section that needs more overrides them.
type logArea struct {
	h    *pmem.Heap
	f    *pmem.Flusher
	base pmem.Addr
}

func (l *logArea) Begin()                  {}
func (l *logArea) Load(a pmem.Addr) uint64 { return l.h.Load64(a) }
func (l *logArea) Abort()                  {}

// stride is the bytes one logged word occupies.
func (p Policy) stride() pmem.Addr {
	if p == InCLL {
		return cellSize
	}
	return 8
}

// shared is what Map and Queue have in common: the heap, the policy's
// sections and a pool of fixed-size nodes.
type shared struct {
	h        *pmem.Heap
	alloc    *pmem.Bump
	policy   Policy
	stride   pmem.Addr
	secs     []section
	nodeSize int
	freeMu   sync.Mutex
	free     []pmem.Addr // released nodes; volatile, dropped by reopen
}

// init allocates rootBytes of root words, then every thread's log, and
// returns the root.
func (s *shared) init(h *pmem.Heap, p Policy, threads, rootBytes, nodeSize int) pmem.Addr {
	s.h, s.alloc, s.policy, s.stride, s.nodeSize = h, pmem.NewBumpAll(h), p, p.stride(), nodeSize
	root := s.allocate(rootBytes)
	s.secs = make([]section, threads)
	for th := range s.secs {
		area := func(bytes int) logArea { return logArea{h: h, f: h.NewFlusher(), base: s.allocate(bytes)} }
		switch p {
		case UndoLog, Clobber:
			s.secs[th] = &undoLog{logArea: area(64 + 32*logCap), clobber: p == Clobber}
		case RedoLog:
			s.secs[th] = &redoLog{logArea: area(16 + 16*logCap), ws: map[pmem.Addr]uint64{}}
		default:
			s.secs[th] = &incll{logArea: area(8), thread: uint64(th + 1)}
		}
	}
	return root
}

func (s *shared) allocate(bytes int) pmem.Addr {
	a := s.alloc.Alloc(bytes)
	if a == pmem.NilAddr {
		panic("durable: heap exhausted")
	}
	return a
}

// node returns a released node if there is one, else a fresh one.
func (s *shared) node() pmem.Addr {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	if k := len(s.free); k > 0 {
		n := s.free[k-1]
		s.free = s.free[:k-1]
		return n
	}
	return s.allocate(s.nodeSize)
}

// release returns a node that a committed operation unlinked.
func (s *shared) release(n pmem.Addr) {
	s.freeMu.Lock()
	s.free = append(s.free, n)
	s.freeMu.Unlock()
}

// reopen boots a heap that is still down, recovers every thread's torn
// operation and drops the free list, since the recovered image may link a
// node released before the crash (its nodes leak). Only InCLL walks the
// structure, whose walk visits every logged word before following it: the
// undo copies live in the words themselves. It returns the words restored.
func (s *shared) reopen(walk func(visit func(pmem.Addr))) int {
	if s.h.Crashed() {
		s.h.Reopen()
	}
	n := 0
	for _, sec := range s.secs {
		n += sec.recover()
	}
	if s.policy == InCLL {
		n += rollBack(s.h, s.secs, walk)
	}
	s.free = nil
	return n
}

// PerOp, ThreadExit and Close implement structures.Map and structures.Queue:
// a durable system has no restart points and no background work.
func (s *shared) PerOp(int)      {}
func (s *shared) ThreadExit(int) {}
func (s *shared) Close()         {}
