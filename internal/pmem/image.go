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
