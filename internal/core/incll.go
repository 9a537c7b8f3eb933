package core

import (
	"fmt"
	"math"

	"github.com/respct/respct/internal/pmem"
)

// InCLL cell layout within its cache line (paper Fig. 2):
//
//	word 0: record   — the current value
//	word 1: backup   — the value before the first update of the epoch
//	word 2: epochID  — the epoch of the last first-update
//	word 3: aux      — not part of the cell: a spare plain word (see CellAux)
//
// CellSize is the stride between packed InCLL cells. Two cells fit in a
// cache line; a cell never straddles a line boundary.
const (
	cellRecordOff = 0
	cellBackupOff = 8
	cellEpochOff  = 16
	cellAuxOff    = 24

	// CellSize is the footprint of one InCLL cell in bytes.
	CellSize = 32
)

// InCLL is a handle to an in-cache-line-logged 64-bit variable in NVMM. The
// zero value is invalid; obtain handles from Arena.Alloc, Runtime.RootInCLL
// or InCLLAt.
type InCLL struct {
	addr pmem.Addr
}

// InCLLAt wraps the InCLL cell starting at a. The cell's three words must
// lie within one cache line.
func InCLLAt(a pmem.Addr) InCLL {
	if a%pmem.WordSize != 0 {
		panic(fmt.Sprintf("core: unaligned InCLL address %#x", uint64(a)))
	}
	if uint64(a)%pmem.LineSize > pmem.LineSize-3*pmem.WordSize {
		panic(fmt.Sprintf("core: InCLL cell at %#x would straddle a cache line", uint64(a)))
	}
	return InCLL{addr: a}
}

// Addr returns the address of the cell's record word.
func (v InCLL) Addr() pmem.Addr { return v.addr }

// IsNil reports whether the handle is the zero handle.
func (v InCLL) IsNil() bool { return v.addr == pmem.NilAddr }

// Init initialises an InCLL variable (paper init_InCLL, Fig. 4 lines 19-23):
// record and backup take val, the epoch tag takes the current epoch, and the
// cell is registered in the thread's flush list.
//
// Init is only correct for cells inside a block freshly obtained from the
// arena in the current epoch: such blocks vanish wholesale if the epoch
// crashes (the allocator state rolls back), so the cell's backup never
// matters. For a pre-existing cell — a heap root, or any cell that survived
// a checkpoint — use Update, whose undo log restores the previous value.
func (t *Thread) Init(v InCLL, val uint64) {
	h := t.rt.heap
	h.Store64(v.addr+cellRecordOff, val)
	h.Store64(v.addr+cellBackupOff, val)
	h.Store64(v.addr+cellEpochOff, t.epoch())
	t.AddModified(v.addr)
}

// Update replaces the usual store to an InCLL variable (paper update_InCLL,
// Fig. 4 lines 24-29). On the first update of the epoch it copies the
// current value into the backup word and tags the cell with the epoch —
// both land in the same cache line as the value, so PCSO guarantees the undo
// information can never trail the value into NVMM — and appends the cell to
// the thread's to-be-flushed list. The caller must hold the lock protecting
// the variable (§2.1); concurrent Updates of one cell are a programming
// error, exactly as in the paper.
func (t *Thread) Update(v InCLL, val uint64) {
	h := t.rt.heap
	// The thread's cached epoch is exact: the epoch only advances while the
	// thread is parked, and unparking refreshes the cache (track.go).
	epoch := t.epoch()
	if tag := h.Load64(v.addr + cellEpochOff); tag != epoch {
		if t.rt.asyncOn {
			// A drain may still owe this cell's line to NVMM, and if the
			// cell was modified in the epoch being drained, the backup we
			// are about to overwrite is the only copy of the previous
			// durable cut's value — see async.go.
			t.collideCell(v.addr, tag)
		}
		h.Store64(v.addr+cellBackupOff, h.Load64(v.addr+cellRecordOff))
		h.Store64(v.addr+cellEpochOff, epoch)
		t.AddModified(v.addr)
	} else if t.rt.cfg.DisableTracking {
		// Ablation mode: behave like a tracker without the InCLL epoch
		// optimisation — every update appends, duplicates and all.
		t.AddModified(v.addr)
	}
	h.Store64(v.addr+cellRecordOff, val)
}

// Read returns the current value of an InCLL variable. Reads need no
// logging or tracking; any goroutine holding the appropriate lock may read.
func (rt *Runtime) Read(v InCLL) uint64 {
	return rt.heap.Load64(v.addr + cellRecordOff)
}

// Read is a convenience alias for Runtime.Read on the thread's runtime.
func (t *Thread) Read(v InCLL) uint64 { return t.rt.Read(v) }

// EpochOf returns the cell's epoch tag (the epoch of its last first-update).
func (rt *Runtime) EpochOf(v InCLL) uint64 {
	return rt.heap.Load64(v.addr + cellEpochOff)
}

// BackupOf returns the cell's logged value.
func (rt *Runtime) BackupOf(v InCLL) uint64 {
	return rt.heap.Load64(v.addr + cellBackupOff)
}

// Typed views. All InCLL cells hold one machine word; these helpers
// translate common Go types to and from that word.

// UpdateInt is Update for int64 values.
func (t *Thread) UpdateInt(v InCLL, val int64) { t.Update(v, uint64(val)) }

// ReadInt reads an InCLL cell as int64.
func (rt *Runtime) ReadInt(v InCLL) int64 { return int64(rt.Read(v)) }

// ReadInt reads an InCLL cell as int64.
func (t *Thread) ReadInt(v InCLL) int64 { return int64(t.Read(v)) }

// InitInt is Init for int64 values.
func (t *Thread) InitInt(v InCLL, val int64) { t.Init(v, uint64(val)) }

// UpdateFloat is Update for float64 values.
func (t *Thread) UpdateFloat(v InCLL, val float64) { t.Update(v, math.Float64bits(val)) }

// ReadFloat reads an InCLL cell as float64.
func (rt *Runtime) ReadFloat(v InCLL) float64 { return math.Float64frombits(rt.Read(v)) }

// ReadFloat reads an InCLL cell as float64.
func (t *Thread) ReadFloat(v InCLL) float64 { return t.rt.ReadFloat(v) }

// InitFloat is Init for float64 values.
func (t *Thread) InitFloat(v InCLL, val float64) { t.Init(v, math.Float64bits(val)) }

// UpdateAddr is Update for persistent pointers.
func (t *Thread) UpdateAddr(v InCLL, val pmem.Addr) { t.Update(v, uint64(val)) }

// ReadAddr reads an InCLL cell as a persistent pointer.
func (rt *Runtime) ReadAddr(v InCLL) pmem.Addr { return pmem.Addr(rt.Read(v)) }

// ReadAddr reads an InCLL cell as a persistent pointer.
func (t *Thread) ReadAddr(v InCLL) pmem.Addr { return pmem.Addr(t.Read(v)) }

// InitAddr is Init for persistent pointers.
func (t *Thread) InitAddr(v InCLL, val pmem.Addr) { t.Init(v, uint64(val)) }

// rollbackCell applies the recovery rule (paper Fig. 5 lines 62-64) to the
// cell at a, using the persistent image as both source and target: callers
// run it after Heap.Reopen, so the volatile image equals the persistent one.
//
// drained handles a crash inside an async drain window: the failed epoch N
// never durably committed, but workers were already running epoch N+1, so
// cells tagged N+1 may have reached NVMM too (evictions, collision flushes).
// Restoring their backup and retagging with N recovers them: for a cell
// untouched during epoch N the backup is its value at the last durable cut,
// and a cell modified in both N and N+1 — whose backup is the not-yet-durable
// cut-N value — is repaired afterwards from the collision log (see Recover).
// The retag matters: execution resumes in epoch N, and a tag of N+1 would
// make the cell's next update in any epoch ≤ N+1 skip its undo logging.
func rollbackCell(h *pmem.Heap, a pmem.Addr, failedEpoch uint64, drained bool) bool {
	switch tag := h.Load64(a + cellEpochOff); {
	case tag == failedEpoch:
		h.Store64(a+cellRecordOff, h.Load64(a+cellBackupOff))
		return true
	case drained && tag == failedEpoch+1:
		h.Store64(a+cellRecordOff, h.Load64(a+cellBackupOff))
		h.Store64(a+cellEpochOff, failedEpoch)
		return true
	}
	return false
}
