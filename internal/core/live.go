package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/respct/respct/internal/pmem"
)

// The live view: the persistent image as a snapshot should carry it. It is
// the recovery plan of the persistent image (recover.go) without its apply,
// plus one walk of the committed free lists.
//
// Two kinds of words are dead by the recovery rule itself, and the live view
// reads them as zero:
//
//   - the payload (not the header) of every block on a committed free list.
//     Recovery never follows a pointer into it, and the allocator hands it
//     out only to a caller that initialises it;
//   - the backup word of every InCLL cell whose tag is older than the epoch
//     word: the rule reads a backup only for a tag it rolls back, and the
//     cell's next first-update overwrites it before anything else reads it.
//     The cells covered are the arena's bump and free-list head cells, both
//     header cells of every carved block, and the cells each block's layout
//     declares — never roots, raw words, the collision log or the flight
//     ring.
//
// Each backup is judged by the tag in the very line being encoded, never by
// the runtime's volatile state. A free block's declared cell whose tag the
// rule rolls back is kept whole, so a recovery of the live view rolls back
// exactly the cells a recovery of the full image does. Restoring a live view
// needs nothing new: a word the view zeroes is one no reader reaches.

// LiveImage is a frame.ImageSource over the live view of a formatted heap's
// persistent image. It captures the free lists and the block layouts when it
// is built, so the image must not commit an epoch while it is read: hold the
// runtime's checkpoints (Runtime.HoldCheckpoints) across the encode, or read
// a heap nothing runs on.
type LiveImage struct {
	h      *pmem.Heap
	epoch  uint64        // the persistent epoch word
	meta   []pmem.Addr   // the arena's bump and free-list head cells
	blocks []carvedBlock // the plan's blocks, free ones marked
	free   int           // blocks on committed free lists
}

// NewLiveImage builds the live view of h's persistent image. It fails with
// recovery's own error when recovery would refuse the image: ErrNotFormatted
// when the image carries no format marker.
func NewLiveImage(h *pmem.Heap) (*LiveImage, error) {
	p, err := planRecovery(h, h.LoadPersistent64)
	if err != nil {
		return nil, err
	}
	a := p.arena
	v := &LiveImage{h: h, epoch: p.epoch, meta: []pmem.Addr{a.bump.Addr()}, blocks: p.blocks}
	for c := range a.heads {
		v.meta = append(v.meta, a.heads[c].Addr())
	}
	// The committed free lists. A link that is not a block of the list's
	// class, or one already seen, ends the walk: nothing past it is elided.
	for c := range a.heads {
		b, _ := p.recovered(a.heads[c].Addr())
		for b != uint64(pmem.NilAddr) {
			i, ok := v.blockAt(pmem.Addr(b))
			if !ok || v.blocks[i].free || int(v.blocks[i].class) != c {
				break
			}
			v.blocks[i].free = true
			v.free++
			b, _ = p.recovered(pmem.Addr(b) + hdrNextOff)
		}
	}
	return v, nil
}

// blockAt returns the index of the block starting at b.
func (v *LiveImage) blockAt(b pmem.Addr) (int, bool) {
	i := sort.Search(len(v.blocks), func(i int) bool { return v.blocks[i].start >= b })
	return i, i < len(v.blocks) && v.blocks[i].start == b
}

// FreeBlocks returns the number of blocks on committed free lists, whose
// payloads the view reads as zero.
func (v *LiveImage) FreeBlocks() int { return v.free }

// ImageBytes returns the persistent image size.
func (v *LiveImage) ImageBytes() int64 { return v.h.ImageSize() }

// ReadImageAt fills p with the live view of the image at off. off and len(p)
// must be multiples of the line size, so every cell lies wholly inside or
// wholly outside p and is judged by its own tag word in p. Safe for
// concurrent use on disjoint ranges.
func (v *LiveImage) ReadImageAt(p []byte, off int64) error {
	if off%pmem.LineSize != 0 || len(p)%pmem.LineSize != 0 {
		return fmt.Errorf("core: live view read [%d,+%d) is not line-aligned", off, len(p))
	}
	if err := v.h.ReadPersistentAt(p, off); err != nil {
		return err
	}
	lo, hi := pmem.Addr(off), pmem.Addr(off+int64(len(p)))
	word := func(a pmem.Addr) []byte { return p[a-lo : a-lo+pmem.WordSize] }
	// committed zeroes c's backup when c's tag is older than the epoch word.
	committed := func(c pmem.Addr) {
		if binary.LittleEndian.Uint64(word(c+cellEpochOff)) < v.epoch {
			clear(word(c + cellBackupOff))
		}
	}
	for _, c := range v.meta {
		if c >= lo && c < hi {
			committed(c)
		}
	}
	i := sort.Search(len(v.blocks), func(i int) bool { return v.blocks[i].end() > lo })
	for ; i < len(v.blocks) && v.blocks[i].start < hi; i++ {
		b := v.blocks[i]
		if b.start >= lo { // the header line
			committed(b.start + hdrNextOff)
			committed(b.start + hdrLayoutOff)
		}
		payload := b.start + headerSize
		from, to := max(payload, lo), min(b.end(), hi)
		cellsEnd := min(payload+pmem.Addr(b.cells)*CellSize, to)
		for c := from; c < cellsEnd; c += CellSize {
			switch {
			case !b.free:
				committed(c)
			case binary.LittleEndian.Uint64(word(c+cellEpochOff)) < v.epoch:
				clear(p[c-lo : c-lo+CellSize])
			}
		}
		if b.free && to > max(from, cellsEnd) {
			clear(p[max(from, cellsEnd)-lo : to-lo])
		}
	}
	return nil
}
