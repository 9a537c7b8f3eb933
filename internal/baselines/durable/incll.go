package durable

import "github.com/respct/respct/internal/pmem"

// An InCLL cell is one logged word: the record (at offset 0, so a cell loads
// like any word), its backup and the tag of the operation that backed it
// up, in one line, whose store ordering keeps the three consistent.
const (
	cellBackup = 8
	cellTag    = 16
	cellSize   = 32
)

// incll is one thread's InCLL section. Its log is the commit record, the last
// committed seq; an operation's tag is thread<<40 | seq, thread from 1.
type incll struct {
	logArea
	thread uint64
	seq    uint64
}

func (t *incll) tag() uint64 { return t.thread<<40 | t.seq }

func (t *incll) Begin() { t.seq++ }

// Store backs the cell up on the operation's first store to it, then
// writes the record. The line is queued for the commit fence.
func (t *incll) Store(a pmem.Addr, v uint64) {
	if tag := t.tag(); t.h.Load64(a+cellTag) != tag {
		t.h.Store64(a+cellBackup, t.h.Load64(a))
		t.h.Store64(a+cellTag, tag)
	}
	t.h.Store64(a, v)
	t.f.CLWB(a)
}

// Init fills a fresh cell, its backup the new value: the cell becomes
// reachable only through a logged Store.
func (t *incll) Init(a pmem.Addr, v uint64) {
	t.h.Store64(a, v)
	t.h.Store64(a+cellBackup, v)
	t.h.Store64(a+cellTag, t.tag())
	t.f.CLWB(a)
}

func (t *incll) Raw(a pmem.Addr, v uint64) {
	t.h.Store64(a, v)
	t.f.CLWB(a)
}

// Commit flushes the touched lines, one fence, then persists the commit
// record, one more.
func (t *incll) Commit() {
	t.f.SFence()
	t.h.Store64(t.base, t.seq)
	t.f.Persist(t.base)
}

// recover resumes at the committed seq; rollBack undoes the torn operation.
func (t *incll) recover() int {
	t.seq = t.h.Load64(t.base)
	return 0
}

// rollBack restores every reachable cell whose tag belongs to an operation
// that never committed and returns how many it restored.
//
// Invariant: when it returns, no reachable cell carries an uncommitted tag,
// in the volatile image or the persistent one: each rollback restores the
// record, clears the tag and is flushed, under one fence. That is what lets
// a thread resume at its committed seq. Its next operation reuses the torn
// one's tag, and a cell still carrying it would pass for backed up, so that
// operation would neither back it up nor flush it. Cells the rollback makes
// unreachable keep their tags; their nodes leak.
func rollBack(h *pmem.Heap, secs []section, walk func(visit func(pmem.Addr))) int {
	f := h.NewFlusher()
	rolled := 0
	walk(func(a pmem.Addr) {
		tag := h.Load64(a + cellTag)
		th := int(tag>>40) - 1
		if th < 0 || th >= len(secs) || tag&(1<<40-1) <= secs[th].(*incll).seq {
			return
		}
		h.Store64(a, h.Load64(a+cellBackup))
		h.Store64(a+cellTag, 0)
		f.CLWB(a)
		rolled++
	})
	f.SFence()
	return rolled
}
