package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/respct/respct/internal/pmem"
)

// The arena is a crash-consistent allocator for ResPCT-managed persistent
// data. Blocks are cache-line aligned and self-describing: each starts with
// a one-line header holding
//
//	words 0-2: the free-list "next" pointer, as an InCLL cell
//	words 3-5: the block layout (size class, InCLL cell count, raw word
//	           count), packed into an InCLL cell
//	word 6:    a magic word
//
// Headers make recovery's scan possible without any index: walking the
// carved region block by block visits every InCLL cell in NVMM (the paper's
// "for every variable in NVMM with InCLL", Fig. 5 line 62).
//
// Allocation state (the bump cursor and one free-list head per size class)
// lives in InCLL cells in the arena's metadata region, so a crash rolls the
// allocator back to the last checkpoint together with the data: blocks
// carved during a crashed epoch are un-carved, pops are un-popped.
//
// Frees are deferred: Free queues the block on the freeing thread's volatile
// pending list and the checkpoint pushes it onto the free list at the start
// of the next epoch. A block can therefore never be recycled in the epoch
// that freed it, which would otherwise let a new owner overwrite payload
// words the undo log still needs. The price is that blocks freed during the
// epoch a crash destroys leak (they are unreachable after recovery); the
// paper's copy-on-write competitors pay a comparable recovery-GC cost.
const (
	numClasses  = 21 // classes 64B << 0..20 (64 B .. 64 MiB)
	headerSize  = pmem.LineSize
	blockMagic  = 0x526c6f636b3231 // "Rlock21"
	formatMagic = 0x5265735043542e // "ResPCT."
	formatVer   = 3                // v2 added the collision log, v3 the flight ring

	hdrNextOff   = 0  // header InCLL cell: free-list next
	hdrLayoutOff = 24 // header InCLL cell: packed layout
	hdrMagicOff  = 48

	// metadata region layout, in lines from the heap's data start
	metaMarkerLine = 0
	metaBumpLine   = 1
	metaClassLine0 = 2
	metaIdxLine    = metaClassLine0 + numClasses // reserved (spare)
	metaRPLine0    = metaIdxLine + 1
	metaRPLines    = MaxThreads * 8 / pmem.LineSize

	// Collision log (async checkpointing, see async.go): a header line
	// (word 0: guard epoch — the epoch whose drain the entries belong to;
	// word 1: entry count) followed by collLogEntries 16-byte entries of
	// (cell address, pre-drain backup value).
	collLogHdrLine  = metaRPLine0 + metaRPLines
	collLogEntLine0 = collLogHdrLine + 1
	collLogEntLines = collLogEntries * 16 / pmem.LineSize

	// Flight recorder (internal/telemetry): a cursor line followed by one
	// line per event. The ring survives crashes and recovery reports its
	// tail, so post-mortems can see the runtime's final checkpoints.
	flightHdrLine   = collLogEntLine0 + collLogEntLines
	flightEntries   = 128
	flightRingLines = 1 + flightEntries

	metaLines = flightHdrLine + flightRingLines
)

func classSize(class int) int { return headerSize << class }

func classFor(total int) (int, error) {
	for c := 0; c < numClasses; c++ {
		if classSize(c) >= total {
			return c, nil
		}
	}
	return 0, fmt.Errorf("core: allocation of %d bytes exceeds the largest size class (%d)", total, classSize(numClasses-1))
}

func packLayout(class, cells, rawWords int) uint64 {
	return uint64(class)<<56 | uint64(cells)<<28 | uint64(rawWords)
}

func unpackLayout(v uint64) (class, cells, rawWords int) {
	return int(v >> 56), int(v >> 28 & 0xFFFFFFF), int(v & 0xFFFFFFF)
}

// Arena is the runtime's crash-consistent persistent allocator.
type Arena struct {
	heap *pmem.Heap
	mu   sync.Mutex

	metaBase pmem.Addr
	dataBase pmem.Addr
	dataEnd  pmem.Addr

	bump  InCLL             // next carve address
	heads [numClasses]InCLL // free-list head per class

	allocs atomic.Uint64
	frees  atomic.Uint64
	carves atomic.Uint64
}

// magazineCap bounds a per-thread, per-class magazine; overflow spills to
// the persistent free list via the checkpoint's deferred-free path. The cap
// is generous: in steady state a magazine holds about one epoch's frees
// (nothing is recyclable until its freeing epoch has been checkpointed), and
// the volatile entries are 16 bytes each.
const magazineCap = 262144

func (rt *Runtime) metaBase() pmem.Addr { return rt.heap.DataStart() }

func newArenaView(rt *Runtime) *Arena {
	metaBase := rt.metaBase()
	a := &Arena{
		heap:     rt.heap,
		metaBase: metaBase,
		dataBase: metaBase + pmem.Addr(metaLines*pmem.LineSize),
		dataEnd:  pmem.Addr(rt.heap.Size()),
	}
	a.bump = InCLLAt(metaBase + pmem.Addr(metaBumpLine*pmem.LineSize))
	for c := 0; c < numClasses; c++ {
		a.heads[c] = InCLLAt(metaBase + pmem.Addr((metaClassLine0+c)*pmem.LineSize))
	}
	return a
}

// formatArena lays out a fresh arena on the runtime's heap.
func formatArena(rt *Runtime) (*Arena, error) {
	a := newArenaView(rt)
	if a.dataBase >= a.dataEnd {
		return nil, fmt.Errorf("core: heap too small (%d bytes) for arena metadata", rt.heap.Size())
	}
	sys := rt.sys
	sys.Init(a.bump, uint64(a.dataBase))
	for c := 0; c < numClasses; c++ {
		sys.Init(a.heads[c], 0)
	}
	// Restart-point table: one word per potential thread, zeroed.
	for i := 0; i < MaxThreads; i++ {
		sys.StoreTracked(a.rpSlot(i), 0)
	}
	// Collision-log header: guard epoch 0 (matches no failed epoch) and an
	// empty count. The entry lines need no formatting — the count gates
	// them.
	sys.StoreTracked(a.collHdrAddr(), 0)
	sys.StoreTracked(a.collHdrAddr()+8, 0)
	// The marker is stored but persisted separately, last (NewRuntime).
	h := rt.heap
	mb := a.markerAddr()
	h.Store64(mb, formatMagic)
	h.Store64(mb+8, formatVer)
	h.Store64(mb+16, numClasses)
	h.Store64(mb+24, MaxThreads)
	return a, nil
}

func (a *Arena) markerAddr() pmem.Addr {
	return a.metaBase + pmem.Addr(metaMarkerLine*pmem.LineSize)
}

func (a *Arena) rpSlot(i int) pmem.Addr {
	return a.metaBase + pmem.Addr(metaRPLine0*pmem.LineSize+i*8)
}

// collHdrAddr returns the collision-log header line (guard epoch, count).
func (a *Arena) collHdrAddr() pmem.Addr {
	return a.metaBase + pmem.Addr(collLogHdrLine*pmem.LineSize)
}

// collEntryAddr returns the address of collision-log entry i.
func (a *Arena) collEntryAddr(i int) pmem.Addr {
	return a.metaBase + pmem.Addr(collLogEntLine0*pmem.LineSize+i*16)
}

// flightHdrAddr returns the flight recorder's header line; the entry lines
// follow it.
func (a *Arena) flightHdrAddr() pmem.Addr {
	return a.metaBase + pmem.Addr(flightHdrLine*pmem.LineSize)
}

func (a *Arena) persistFormatMarker(f *pmem.Flusher) {
	f.Persist(a.markerAddr())
}

// checkFormatMarker validates a previously formatted heap.
func (a *Arena) checkFormatMarker() error {
	h := a.heap
	mb := a.markerAddr()
	if got := h.Load64(mb); got != formatMagic {
		return fmt.Errorf("core: heap is not ResPCT-formatted (marker %#x)", got)
	}
	if got := h.Load64(mb + 8); got != formatVer {
		return fmt.Errorf("core: unsupported format version %d", got)
	}
	if got := h.Load64(mb + 16); got != numClasses {
		return fmt.Errorf("core: format has %d size classes, binary expects %d", got, numClasses)
	}
	if got := h.Load64(mb + 24); got != MaxThreads {
		return fmt.Errorf("core: format has MaxThreads %d, binary expects %d", got, MaxThreads)
	}
	return nil
}

// Alloc returns a persistent block with room for `cells` InCLL cells
// followed by `rawWords` plain 64-bit words, or NilAddr if the heap is
// exhausted. The returned address is the payload start: cell i lives at
// payload + i*CellSize, the raw words follow the cells. The caller should
// initialise every cell with Thread.Init and fully initialise the raw words
// (recycled blocks hold stale data).
func (a *Arena) Alloc(t *Thread, cells, rawWords int) pmem.Addr {
	if cells < 0 || rawWords < 0 {
		panic("core: negative Alloc request")
	}
	payload := cells*CellSize + rawWords*pmem.WordSize
	class, err := classFor(headerSize + payload)
	if err != nil {
		panic(err)
	}
	layout := packLayout(class, cells, rawWords)
	h := a.heap
	a.allocs.Add(1)

	// Fast path: the thread's own magazine. No lock, no persistent-state
	// change — recycling is purely volatile, with the same crash semantics
	// as the deferred free list (blocks freed in the epoch a crash destroys
	// leak; nothing can be recycled in the epoch that freed it). The gate is
	// the *durable* epoch, not the DRAM epoch cache: under async
	// checkpointing a block freed in epoch N keeps its NVMM payload — which
	// a crash during the drain of N still recovers through — until C_N has
	// durably committed. In sync mode the two epochs coincide.
	// The cached durable epoch is a lower bound (it refreshes at park/unpark
	// boundaries), so a hit on it needs no atomic load; the fallback re-checks
	// the live counter so a freshly committed drain is never missed.
	if mag := &t.magazines[class]; t.magStart[class] < len(*mag) {
		e := (*mag)[t.magStart[class]]
		if e.epoch < t.durable() || e.epoch < t.rt.durableEpoch.Load() {
			t.magRecycled.Add(1)
			t.magStart[class]++
			if t.magStart[class] == len(*mag) {
				*mag = (*mag)[:0]
				t.magStart[class] = 0
			}
			if h.Load64(e.block+hdrLayoutOff+cellRecordOff) != layout {
				t.Update(InCLLAt(e.block+hdrLayoutOff), layout)
			}
			return e.block + headerSize
		}
	}

	a.mu.Lock()
	defer a.mu.Unlock()

	// Try the class free list next.
	if block := pmem.Addr(t.Read(a.heads[class])); block != pmem.NilAddr {
		next := h.Load64(block + hdrNextOff + cellRecordOff)
		t.Update(a.heads[class], next)
		// Refill amortisation: while the lock is held and the magazine is
		// empty, prefetch a small batch of further free blocks into it so the
		// next allocations skip the lock entirely. Free-list blocks were
		// freed in an already-durable epoch, so the epoch-0 stamp makes them
		// immediately recyclable; the pops are undo-logged head updates, so a
		// crash in this epoch restores the list (and the volatile magazine
		// vanishes with it — prefetched blocks leak only if a later crash
		// destroys them, the documented fate of any magazine-held block).
		if mag := &t.magazines[class]; t.magStart[class] == len(*mag) {
			*mag = (*mag)[:0]
			t.magStart[class] = 0
			for n := 1; n < freeListRefill; n++ {
				b := pmem.Addr(t.Read(a.heads[class]))
				if b == pmem.NilAddr {
					break
				}
				t.Update(a.heads[class], h.Load64(b+hdrNextOff+cellRecordOff))
				*mag = append(*mag, magazineEntry{block: b, epoch: 0})
			}
		}
		if h.Load64(block+hdrLayoutOff+cellRecordOff) != layout {
			// Recycled into a different shape: undo-log the layout so a
			// crash restores the old shape for the recovery scan.
			t.Update(InCLLAt(block+hdrLayoutOff), layout)
		}
		return block + headerSize
	}
	return a.carveLocked(t, class, layout)
}

// freeListRefill bounds how many blocks one Alloc may prefetch from a class
// free list into its empty magazine under a single lock acquisition.
const freeListRefill = 16

// carveLocked cuts a fresh block of the given class off the bump region and
// writes its header. Caller holds a.mu.
func (a *Arena) carveLocked(t *Thread, class int, layout uint64) pmem.Addr {
	h := a.heap
	block := pmem.Addr(t.Read(a.bump))
	size := pmem.Addr(classSize(class))
	if block+size > a.dataEnd {
		return pmem.NilAddr
	}
	t.Update(a.bump, uint64(block+size))
	a.carves.Add(1)

	// Header: a fresh carve is only reachable once the bump update
	// persists, and the bump update is undo-logged, so plain initialising
	// stores suffice — a crash in this epoch un-carves the block.
	epoch := t.epoch()
	h.Store64(block+hdrNextOff+cellRecordOff, 0)
	h.Store64(block+hdrNextOff+cellBackupOff, 0)
	h.Store64(block+hdrNextOff+cellEpochOff, epoch)
	h.Store64(block+hdrLayoutOff+cellRecordOff, layout)
	h.Store64(block+hdrLayoutOff+cellBackupOff, layout)
	h.Store64(block+hdrLayoutOff+cellEpochOff, epoch)
	h.Store64(block+hdrMagicOff, blockMagic)
	t.AddModified(block)
	return block + headerSize
}

// Free queues the block whose payload starts at payload for reclamation.
// The block enters the freeing thread's magazine and becomes recyclable by
// that thread once the freeing epoch has been checkpointed; if the magazine
// overflows, the oldest entries spill to the persistent free list via the
// checkpoint's deferred-free path. Either way a block can never be recycled
// in the epoch that freed it (see the package comment on the Arena).
func (a *Arena) Free(t *Thread, payload pmem.Addr) {
	block := payload - headerSize
	h := a.heap
	if h.Load64(block+hdrMagicOff) != blockMagic {
		panic(fmt.Sprintf("core: Free of non-block address %#x", uint64(payload)))
	}
	a.frees.Add(1)
	class, _, _ := unpackLayout(h.Load64(block + hdrLayoutOff + cellRecordOff))
	mag := &t.magazines[class]
	*mag = append(*mag, magazineEntry{block: block, epoch: t.epoch()})
	if len(*mag)-t.magStart[class] > magazineCap {
		// Spill the oldest half as one batch: grow pendingFree once, append
		// the block addresses, and compact the magazine in place — no fresh
		// backing array per overflow.
		const half = magazineCap / 2
		start := t.magStart[class]
		spill := (*mag)[start : start+half]
		t.magSpilled.Add(uint64(len(spill)))
		t.pendingFree = slices.Grow(t.pendingFree, half)
		for _, e := range spill {
			t.pendingFree = append(t.pendingFree, e.block)
		}
		n := copy(*mag, (*mag)[start+half:])
		*mag = (*mag)[:n]
		t.magStart[class] = 0
	}
}

// applyDeferredFrees pushes every queued block onto its free list. It runs
// inside the checkpoint, after the epoch increment, with all workers parked;
// sys performs the InCLL updates so they are logged and tracked in the new
// epoch.
func (a *Arena) applyDeferredFrees(sys *Thread, threads []*Thread) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range threads {
		for _, b := range t.pendingFree {
			a.pushLocked(sys, b)
		}
		t.pendingFree = t.pendingFree[:0]
	}
	for _, b := range sys.pendingFree {
		a.pushLocked(sys, b)
	}
	sys.pendingFree = sys.pendingFree[:0]
}

// pushBlocks pushes a stolen deferred-free list onto the free lists. The
// async drain calls it after its commit: the pushes are InCLL updates in the
// new epoch, so a crash rolls them back and the blocks merely leak.
func (a *Arena) pushBlocks(sys *Thread, blocks []pmem.Addr) {
	if len(blocks) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, b := range blocks {
		a.pushLocked(sys, b)
	}
}

// pushLocked pushes one block onto its class free list. Caller holds a.mu.
func (a *Arena) pushLocked(sys *Thread, block pmem.Addr) {
	class, _, _ := unpackLayout(a.heap.Load64(block + hdrLayoutOff + cellRecordOff))
	head := a.heads[class]
	sys.Update(InCLLAt(block+hdrNextOff), sys.Read(head))
	sys.Update(head, uint64(block))
}

// Cell returns the i-th InCLL cell of a block payload returned by Alloc.
// Payloads are line-aligned and cells are CellSize-strided, so the cell is
// in-line by construction and the InCLLAt validation is skipped — this is
// the hot path of every data-structure operation.
func Cell(payload pmem.Addr, i int) InCLL {
	return InCLL{addr: payload + pmem.Addr(i*CellSize)}
}

// CellAux returns the address of the spare fourth word of the i-th cell of a
// block payload: cells are CellSize-strided but an InCLL cell uses three
// words, so every arena cell carries one plain word in its own cache line.
// Neither the undo log nor recovery touches it; it is the owner's RAW data,
// written with StoreTracked and flushed with the cell's line.
func CellAux(payload pmem.Addr, i int) pmem.Addr {
	return payload + pmem.Addr(i*CellSize+cellAuxOff)
}

// RawBase returns the address of the first raw word of a payload allocated
// with the given cell count.
func RawBase(payload pmem.Addr, cells int) pmem.Addr {
	return payload + pmem.Addr(cells*CellSize)
}

// AllocCells is shorthand for Alloc(t, cells, 0).
func (a *Arena) AllocCells(t *Thread, cells int) pmem.Addr { return a.Alloc(t, cells, 0) }

// AllocRaw is shorthand for Alloc(t, 0, rawWords).
func (a *Arena) AllocRaw(t *Thread, rawWords int) pmem.Addr { return a.Alloc(t, 0, rawWords) }

// AllocBytes allocates a raw block of at least n bytes and returns its
// payload address.
func (a *Arena) AllocBytes(t *Thread, n int) pmem.Addr {
	return a.Alloc(t, 0, (n+pmem.WordSize-1)/pmem.WordSize)
}

// allocRPCell allocates worker i's persistent restart-point cell and records
// its address in the RP table.
func (a *Arena) allocRPCell(sys *Thread, i int) (InCLL, error) {
	payload := a.AllocCells(sys, 1)
	if payload == pmem.NilAddr {
		return InCLL{}, fmt.Errorf("core: heap exhausted allocating RP cell for thread %d", i)
	}
	cell := Cell(payload, 0)
	sys.Init(cell, 0)
	sys.StoreTracked(a.rpSlot(i), uint64(cell.Addr()))
	return cell, nil
}

// ArenaStats reports allocator activity and occupancy.
type ArenaStats struct {
	Allocs uint64 // blocks handed out (free-list pops + carves)
	Frees  uint64 // blocks returned to a free list
	Carves uint64 // blocks carved fresh from the bump region
	Used   int64  // bytes between data base and bump cursor
}

// Stats returns a snapshot of allocator counters.
func (a *Arena) Stats() ArenaStats {
	cur := pmem.Addr(a.heap.Load64(a.bump.Addr() + cellRecordOff))
	return ArenaStats{
		Allocs: a.allocs.Load(),
		Frees:  a.frees.Load(),
		Carves: a.carves.Load(),
		Used:   int64(cur - a.dataBase),
	}
}

// DataBase returns the first carvable address.
func (a *Arena) DataBase() pmem.Addr { return a.dataBase }
