//respct:allow rawstore — undo logging is its own failure-atomicity scheme: each logged store follows its persisted undo entry, and Commit flushes every store

package durable

import "github.com/respct/respct/internal/pmem"

const logCap = 4096 // entries per thread log, undo and redo

// undoLog is one thread's UndoLog or Clobber section. Word 0 of its log
// counts the operations whose logs were retired (done); entry i, at 64+32i,
// is [addr, old value, done+1] and never crosses a line. The entries ending
// in done+1 are the open operation's: persisting done+1 retires them all,
// and no entry count can reach the media before the entry it counts.
type undoLog struct {
	logArea
	clobber bool        // log only write-after-read words
	done    uint64      // operations retired
	n       int         // entries the open operation logged
	touched []pmem.Addr // words it wrote, flushed at Commit
}

func (l *undoLog) entry(i int) pmem.Addr { return l.base + 64 + pmem.Addr(32*i) }

// Store persists an undo entry for a, one fence, then writes a.
func (l *undoLog) Store(a pmem.Addr, v uint64) {
	if l.n == logCap {
		panic("durable: operation overflows its undo log")
	}
	e := l.entry(l.n)
	l.h.Store64(e, uint64(a))
	l.h.Store64(e+8, l.h.Load64(a))
	l.h.Store64(e+16, l.done+1)
	l.n++
	l.f.CLWB(e)
	l.f.SFence()
	l.write(a, v)
}

func (l *undoLog) write(a pmem.Addr, v uint64) {
	l.h.Store64(a, v)
	l.touched = append(l.touched, a)
}

// Init logs like Store under UndoLog. Clobber skips the log: the node
// becomes reachable only through a logged Store, whose rollback hides it.
func (l *undoLog) Init(a pmem.Addr, v uint64) {
	if l.clobber {
		l.write(a, v)
	} else {
		l.Store(a, v)
	}
}

func (l *undoLog) Raw(a pmem.Addr, v uint64) { l.Init(a, v) }

// Commit flushes the operation's stores, one fence, then retires its log,
// one more.
func (l *undoLog) Commit() {
	for _, a := range l.touched {
		l.f.CLWB(a)
	}
	l.f.SFence()
	l.touched = l.touched[:0]
	if l.n != 0 {
		l.n = 0
		l.retire()
	}
}

func (l *undoLog) retire() {
	l.done++
	l.h.Store64(l.base, l.done)
	l.f.Persist(l.base)
}

// recover rolls the torn operation's entries back, newest first, and
// retires its log.
func (l *undoLog) recover() int {
	l.done, l.n, l.touched = l.h.Load64(l.base), 0, l.touched[:0]
	n := 0
	for n < logCap && l.h.Load64(l.entry(n)+16) == l.done+1 {
		n++
	}
	for i := n - 1; i >= 0; i-- {
		e := l.entry(i)
		a := pmem.Addr(l.h.Load64(e))
		l.h.Store64(a, l.h.Load64(e+8))
		l.f.CLWB(a)
	}
	l.f.SFence()
	l.retire()
	return n
}
