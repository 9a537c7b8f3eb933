package durable

import "github.com/respct/respct/internal/pmem"

// redoLog is one thread's RedoLog section. Word 0 of its log is the entry
// count, word 1 the commit mark; entry i, at 16+16i, is [addr, new value].
type redoLog struct {
	logArea
	ws    map[pmem.Addr]uint64 // the open operation's stores
	order []pmem.Addr          // their addresses, first store first
}

func (l *redoLog) entry(i int) pmem.Addr { return l.base + 16 + pmem.Addr(16*i) }

// Load reads through the write set: redo logging's read redirection.
func (l *redoLog) Load(a pmem.Addr) uint64 {
	if v, ok := l.ws[a]; ok {
		return v
	}
	return l.h.Load64(a)
}

func (l *redoLog) Store(a pmem.Addr, v uint64) {
	if _, seen := l.ws[a]; !seen {
		l.order = append(l.order, a)
	}
	l.ws[a] = v
}

func (l *redoLog) Init(a pmem.Addr, v uint64) { l.Store(a, v) }

func (l *redoLog) Raw(a pmem.Addr, v uint64) { l.Store(a, v) }

// Commit persists the log and its count (one fence), the commit mark (one),
// the home locations (one), then truncates the log (one).
func (l *redoLog) Commit() {
	if len(l.order) == 0 {
		return
	}
	if len(l.order) > logCap {
		panic("durable: operation overflows its redo log")
	}
	for i, a := range l.order {
		e := l.entry(i)
		l.h.Store64(e, uint64(a))
		l.h.Store64(e+8, l.ws[a])
		l.f.CLWB(e)
	}
	l.h.Store64(l.base, uint64(len(l.order)))
	l.f.CLWB(l.base)
	l.f.SFence()
	l.h.Store64(l.base+8, 1)
	l.f.Persist(l.base + 8)
	for _, a := range l.order {
		l.h.Store64(a, l.ws[a])
		l.f.CLWB(a)
	}
	l.f.SFence()
	l.truncate()
	l.Abort()
}

func (l *redoLog) truncate() {
	l.h.Store64(l.base, 0)
	l.h.Store64(l.base+8, 0)
	l.f.PersistRange(l.base, 16)
}

func (l *redoLog) Abort() {
	l.order = l.order[:0]
	clear(l.ws)
}

// recover re-applies a committed log and truncates it; an uncommitted log
// never reached a home location and is dropped.
func (l *redoLog) recover() {
	l.Abort()
	if l.h.Load64(l.base+8) == 1 {
		n := int(l.h.Load64(l.base))
		for i := 0; i < n; i++ {
			e := l.entry(i)
			a := pmem.Addr(l.h.Load64(e))
			l.h.Store64(a, l.h.Load64(e+8))
			l.f.CLWB(a)
		}
		l.f.SFence()
	}
	l.truncate()
}
