// Package shadow implements a PMThreads-style baseline (Wu et al.,
// PLDI'20): the working copy of persistent data lives in DRAM; every store
// is intercepted to record the modified word in a per-thread dirty set; at
// the end of each epoch a checkpoint quiesces the workers and copies the
// dirty words to one of two alternating NVMM twins, then persists an epoch
// record naming the twin that is now consistent.
//
// Working in DRAM makes the failure-free data path fast (no NVMM latency,
// no logging), but the paper identifies the modification *tracking* as
// PMThreads' main cost when the persistent state is large. Tracking here is
// page based, like PMThreads' OS page-protection mode: the first store to a
// 4 KiB page in an epoch takes a protection fault (modelled as a fixed
// penalty), later stores to the page are free, and the checkpoint copies and
// flushes *whole* dirty pages — the write amplification that makes
// PMThreads slow when the write set is spread (the hash map) and fast when
// it is compact (the queue, which PMThreads wins in the paper's Fig. 9).
// The original single flusher thread is parallelised, as in the paper's
// evaluation.
//
// The DRAM working copy is itself a simulated heap (pmem with DRAM
// latencies) so that every system in the comparison pays the same
// simulated-memory cost per access.
//
//respct:allow rawstore — PMThreads-style twin baseline copies dirty words to the twins at epoch boundaries itself; bypasses ResPCT tracking by design
package shadow

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/respct/respct/internal/pmem"
)

const (
	pageWords = 512 // 4 KiB pages
	// faultPenalty models one mprotect write fault + re-protection, in spin
	// iterations (a few microseconds on real systems).
	faultPenalty = 3000
)

// Heap is a shadowed word heap: loads and stores hit a DRAM-latency
// simulated heap; two NVMM twins receive dirty words at checkpoints.
type Heap struct {
	dram  *pmem.Heap
	base  pmem.Addr // word 0 of the working copy
	nv    *pmem.Heap
	twin  [2]pmem.Addr
	words int

	gate sync.RWMutex // readers: operations; writer: the checkpoint

	dirtyPages []atomic.Uint32 // page-granular dirty bits for this epoch
	prevPages  []int           // dirty pages of the previous epoch

	epoch   uint64
	flusher *pmem.Flusher
}

// The epoch record is nv root 0: the count of completed checkpoints. Epoch
// e's state is in twin e%2, so one word names the consistent twin.

// NewHeap creates a shadowed heap of `words` 64-bit words with its twins on
// nv. Its epoch 0 is twin 0, all zeros like the fresh working copy.
func NewHeap(nv *pmem.Heap, words int) *Heap {
	alloc := pmem.NewBumpAll(nv)
	dram := pmem.New(pmem.DRAMConfig(pmem.ReservedBytes + int64(words)*8))
	h := &Heap{
		dram:       dram,
		base:       dram.DataStart(),
		nv:         nv,
		words:      words,
		dirtyPages: make([]atomic.Uint32, (words+pageWords-1)/pageWords),
		flusher:    nv.NewFlusher(),
	}
	h.twin[0] = alloc.Alloc(words * 8)
	h.twin[1] = alloc.Alloc(words * 8)
	if h.twin[0] == pmem.NilAddr || h.twin[1] == pmem.NilAddr {
		panic("shadow: NVMM heap too small for twins")
	}
	return h
}

// Enter begins an operation (PMThreads quiesces at critical-section ends;
// the read lock models that: checkpoints wait for in-flight operations).
func (h *Heap) Enter() { h.gate.RLock() }

// Exit ends an operation.
func (h *Heap) Exit() { h.gate.RUnlock() }

// Load reads word i from the DRAM working copy.
func (h *Heap) Load(i int) uint64 { return h.dram.Load64(h.base + pmem.Addr(i*8)) }

// Store writes word i in DRAM. The first store to a page per epoch pays
// the page-protection fault that implements the tracking; later stores to
// the page are free. Callers must be inside Enter/Exit and follow the
// race-free lock discipline.
func (h *Heap) Store(th, i int, v uint64) {
	h.dram.Store64(h.base+pmem.Addr(i*8), v)
	page := i / pageWords
	if h.dirtyPages[page].Load() == 0 && h.dirtyPages[page].CompareAndSwap(0, 1) {
		pmem.Spin(faultPenalty)
	}
}

// Checkpoint quiesces the workers and copies all words dirtied in this epoch
// and the previous one into the inactive twin, making it consistent with the
// current DRAM state; it then persists the epoch record naming that twin.
// (Both epochs' sets are needed because each twin is updated only every
// other epoch.)
func (h *Heap) Checkpoint() {
	h.gate.Lock()
	defer h.gate.Unlock()

	target := int((h.epoch + 1) % 2)
	// Whole pages dirtied this epoch or the previous one are copied: each
	// twin is only refreshed every other epoch.
	unionSet := map[int]struct{}{}
	for _, p := range h.prevPages {
		unionSet[p] = struct{}{}
	}
	var cur []int
	for p := range h.dirtyPages {
		if h.dirtyPages[p].Load() != 0 {
			unionSet[p] = struct{}{}
			cur = append(cur, p)
			h.dirtyPages[p].Store(0)
		}
	}
	union := make([]int, 0, len(unionSet))
	for p := range unionSet {
		union = append(union, p)
	}

	base := h.twin[target]
	copyPage := func(f *pmem.Flusher, page int) {
		lo := page * pageWords
		hi := min(lo+pageWords, h.words)
		for i := lo; i < hi; i++ {
			h.nv.Store64(base+pmem.Addr(i*8), h.Load(i))
		}
		f.PersistRange(base+pmem.Addr(lo*8), (hi-lo)*8)
	}
	if len(union) > 16 {
		workers := runtime.GOMAXPROCS(0)
		if workers < 2 {
			workers = 2
		}
		var wg sync.WaitGroup
		chunk := (len(union) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(union))
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(part []int) {
				defer wg.Done()
				f := h.nv.NewFlusher()
				for _, p := range part {
					copyPage(f, p)
				}
			}(union[lo:hi])
		}
		wg.Wait()
	} else {
		for _, p := range union {
			copyPage(h.flusher, p)
		}
	}

	h.epoch++
	h.nv.SetRoot(0, h.epoch)
	h.flusher.Persist(h.nv.RootAddr(0))
	h.prevPages = cur
}

// OpenHeap rebuilds a shadowed heap from nv's persistent image, rebooting
// nv if it is still down: the working copy is loaded from the twin the
// epoch record names. The other twin lags by an unknown set of pages, so
// the first checkpoint copies every page.
func OpenHeap(nv *pmem.Heap, words int) *Heap {
	if nv.Crashed() {
		nv.Reopen()
	}
	h := NewHeap(nv, words)
	h.epoch = nv.Load64(nv.RootAddr(0))
	base := h.twin[h.epoch%2]
	for i := 0; i < h.words; i++ {
		h.dram.Store64(h.base+pmem.Addr(i*8), nv.Load64(base+pmem.Addr(i*8)))
	}
	for p := range h.dirtyPages {
		h.prevPages = append(h.prevPages, p)
	}
	return h
}

// Words returns the heap size in words.
func (h *Heap) Words() int { return h.words }
