package pmem

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Persistent-image access for the snapshot engine (internal/frame), the only
// code that moves an image to or from disk. It reads the image in
// independent, line-aligned byte ranges from a pool of workers and fills a
// freshly made heap the same way, so two primitives support it:
//
//   - ReadPersistentAt copies an aligned byte range of the persistent image
//     (what survives a crash) into a caller buffer, using atomic word loads
//     so it is safe to call concurrently with running workers — the result
//     is then a word-level-consistent blur.
//   - FillImageAt is its inverse for a heap nobody shares yet: it stores a
//     byte range into the persistent and the volatile image alike, the view
//     a machine has after rebooting onto that image.
//
// Churn tracking makes snapshots incremental. writeBackLine is the single
// choke point through which every durable-image mutation flows — checkpoint
// flushes, collision flushes, chaos evictions, the eADR battery flush — so a
// per-line bitmap maintained there is a conservative superset of "lines
// whose persistent image may differ from the last time the bitmap was
// swapped". A delta snapshot carries exactly those lines. The bitmap is
// swapped atomically (SwapChurn): bits set concurrently with a swap land in
// the fresh map and are re-captured by the next delta, so a racing
// write-back can blur a line's content (as it always could) but never lose
// it from the chain.

// churnMap is one churn-tracking window: 1 bit per heap line.
type churnMap struct {
	bits []atomic.Uint64
}

func (m *churnMap) mark(line int) {
	w := &m.bits[line/64]
	mask := uint64(1) << (line % 64)
	if w.Load()&mask == 0 {
		w.Or(mask)
	}
}

// EnableChurn switches on per-line churn tracking: from this call on, every
// line written back to the persistent image is marked in an internal bitmap
// until SwapChurn harvests it. Enabling is idempotent and keeps the current
// window. Callers enable tracking immediately after capturing a full
// snapshot, so the first SwapChurn window covers exactly the mutations since
// that snapshot.
func (h *Heap) EnableChurn() {
	if h.churn.Load() != nil {
		return
	}
	h.churn.CompareAndSwap(nil, &churnMap{bits: make([]atomic.Uint64, (h.nLines+63)/64)})
}

// ChurnEnabled reports whether churn tracking is on.
func (h *Heap) ChurnEnabled() bool { return h.churn.Load() != nil }

// SwapChurn atomically replaces the churn window with a fresh zeroed one and
// returns the harvested bitmap (1 bit per line, line i at word i/64 bit
// i%64), or nil when tracking is disabled. Write-backs racing the swap mark
// the new window, so a harvested bitmap plus all later windows always cover
// every durable-image mutation since tracking was enabled or last swapped.
func (h *Heap) SwapChurn() []uint64 {
	if h.churn.Load() == nil {
		return nil
	}
	old := h.churn.Swap(&churnMap{bits: make([]atomic.Uint64, (h.nLines+63)/64)})
	out := make([]uint64, len(old.bits))
	for i := range old.bits {
		out[i] = old.bits[i].Load()
	}
	return out
}

// ImageSize returns the persistent image size in bytes (equal to Size).
func (h *Heap) ImageSize() int64 { return int64(h.nWords) * WordSize }

// ReadPersistentAt copies len(p) bytes of the persistent image starting at
// byte offset off into p. off and len(p) must be multiples of WordSize and
// the range must lie inside the image. Words are serialised little-endian,
// the byte order FillImageAt expects. Loads are word-atomic, so concurrent
// write-backs yield a word-consistent blur, never torn words.
func (h *Heap) ReadPersistentAt(p []byte, off int64) error {
	if err := h.checkImageRange(len(p), off); err != nil {
		return err
	}
	w := int(off / WordSize)
	for i := 0; i < len(p); i += WordSize {
		binary.LittleEndian.PutUint64(p[i:], atomic.LoadUint64(&h.persist[w]))
		w++
	}
	return nil
}

// FillImageAt makes the len(p) bytes at byte offset off of both the
// persistent and the volatile image equal p — the post-reboot view of an
// image being restored. Alignment and range rules are ReadPersistentAt's.
// Calls on disjoint ranges may run concurrently, but the heap must not be in
// use yet: the stores are plain. The caller judges the finished image with
// CheckMagic; New's own superblock words are overwritten like any others.
//
//respct:allow atomicmix — boot-time image fill: the heap is not shared until the restore that calls FillImageAt returns
func (h *Heap) FillImageAt(p []byte, off int64) error {
	if err := h.checkImageRange(len(p), off); err != nil {
		return err
	}
	w := int(off / WordSize)
	for i := 0; i < len(p); i += WordSize {
		v := binary.LittleEndian.Uint64(p[i:])
		h.persist[w] = v
		h.volatile[w] = v
		w++
	}
	return nil
}

func (h *Heap) checkImageRange(n int, off int64) error {
	if off%WordSize != 0 || n%WordSize != 0 {
		return fmt.Errorf("pmem: misaligned image access (off %d, len %d)", off, n)
	}
	if off < 0 || off+int64(n) > h.ImageSize() {
		return fmt.Errorf("pmem: image access [%d,%d) outside image of %d bytes", off, off+int64(n), h.ImageSize())
	}
	return nil
}
