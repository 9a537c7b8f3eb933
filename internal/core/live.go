package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/respct/respct/internal/pmem"
)

// The live view: the persistent image as a snapshot should carry it.
//
// Two kinds of words in a ResPCT image are dead by the recovery rule itself
// (paper Fig. 5 lines 62-64), and the live view reads them as zero:
//
//   - the payload (not the header) of every block on a committed free list.
//     Recovery never follows a pointer into it, and the allocator hands it
//     out only to a caller that initialises it;
//   - the backup word of every InCLL cell whose tag is older than the epoch
//     word: recovery reads a backup only when the tag is the failed epoch
//     (or, after an interrupted drain, the epoch after it), and the cell's
//     next first-update overwrites it before anything else reads it. The
//     cells covered are the arena's bump and free-list head cells, both
//     header cells of every carved block, and the cells each block's layout
//     declares — never roots, raw words, the collision log or the flight
//     ring.
//
// Every decision is taken from the persistent image alone, never from the
// runtime's volatile state: the free lists and the layouts are read with
// recovery's own cell rule (collision-log replay included), and each backup
// is judged by the tag in the very line being encoded. A free block's
// declared cell whose tag recovery would roll back is kept whole, so a
// recovery of the live view rolls back exactly the cells a recovery of the
// full image does.
//
// Restoring a live view needs nothing new: the frame format, restore and
// Recover are unchanged, and a word the view zeroes is one no reader reaches.

// ErrNotFormatted reports a heap whose persistent image carries no ResPCT
// format marker; such a heap has no live view (snapshot its full image).
var ErrNotFormatted = errors.New("core: heap is not ResPCT-formatted")

// LiveImage is a frame.ImageSource over the live view of a formatted heap's
// persistent image. It captures the free lists and the block layouts when it
// is built, so the image must not commit an epoch while it is read: hold the
// runtime's checkpoints (Runtime.HoldCheckpoints) across the encode, or read
// a heap nothing runs on.
type LiveImage struct {
	h      *pmem.Heap
	epoch  uint64      // the persistent epoch word
	meta   []pmem.Addr // the arena's bump and free-list head cells
	blocks []liveBlock // every carved block below the recovered bump, in address order
	free   int         // blocks on committed free lists
}

// liveBlock is one carved block as recovery sees it.
type liveBlock struct {
	start pmem.Addr
	cells int32 // InCLL cells the recovered layout declares
	class int8
	free  bool // on a committed free list: the payload is dead
}

func (b liveBlock) end() pmem.Addr { return b.start + pmem.Addr(classSize(int(b.class))) }

// NewLiveImage builds the live view of h's persistent image. It fails with
// ErrNotFormatted when the image carries no format marker, and with a
// description of the damage when recovery itself would refuse the image.
func NewLiveImage(h *pmem.Heap) (*LiveImage, error) {
	p := h.LoadPersistent64
	a := newArenaView(h)
	mb := a.markerAddr()
	if a.dataBase >= a.dataEnd || p(mb) != formatMagic {
		return nil, ErrNotFormatted
	}
	if p(mb+8) != formatVer || p(mb+16) != numClasses || p(mb+24) != MaxThreads {
		return nil, fmt.Errorf("core: live view: format %d/%d/%d does not match this binary", p(mb+8), p(mb+16), p(mb+24))
	}
	epoch := p(h.EpochAddr())
	if epoch == 0 {
		return nil, fmt.Errorf("core: live view: formatted heap with epoch 0 — torn format")
	}
	v := &LiveImage{h: h, epoch: epoch, meta: []pmem.Addr{a.bump.Addr()}}
	for c := range a.heads {
		v.meta = append(v.meta, a.heads[c].Addr())
	}

	// Recovery's cell rule, replay of an interrupted drain's collision log
	// included (see Recover and rollbackCell): the value every reader finds
	// in the cell once the image is recovered.
	drained := p(a.collHdrAddr()) == epoch
	var replayed map[pmem.Addr]uint64
	if drained {
		cnt := p(a.collHdrAddr() + 8)
		if cnt > collLogEntries {
			return nil, fmt.Errorf("core: live view: corrupt collision log (count %d)", cnt)
		}
		replayed = make(map[pmem.Addr]uint64, cnt)
		for i := 0; i < int(cnt); i++ {
			ent := a.collEntryAddr(i)
			replayed[pmem.Addr(p(ent))] = p(ent + 8)
		}
	}
	recovered := func(c pmem.Addr) uint64 {
		if val, ok := replayed[c]; ok {
			return val
		}
		if tag := p(c + cellEpochOff); tag == epoch || drained && tag == epoch+1 {
			return p(c + cellBackupOff)
		}
		return p(c + cellRecordOff)
	}

	// The carved region, walked like Recover walks it.
	end := pmem.Addr(recovered(a.bump.Addr()))
	if end < a.dataBase || end > a.dataEnd {
		return nil, fmt.Errorf("core: live view: bump cursor %#x outside the data region", uint64(end))
	}
	for cur := a.dataBase; cur < end; {
		if got := p(cur + hdrMagicOff); got != blockMagic {
			return nil, fmt.Errorf("core: live view: corrupt block header at %#x (magic %#x)", uint64(cur), got)
		}
		class, cells, _ := unpackLayout(recovered(cur + hdrLayoutOff))
		if class >= numClasses || headerSize+cells*CellSize > classSize(class) {
			return nil, fmt.Errorf("core: live view: corrupt block layout at %#x (class %d, %d cells)", uint64(cur), class, cells)
		}
		v.blocks = append(v.blocks, liveBlock{start: cur, cells: int32(cells), class: int8(class)})
		cur += pmem.Addr(classSize(class))
	}

	// The committed free lists. A link that is not a block of the list's
	// class, or one already seen, ends the walk: nothing past it is elided.
	for c := range a.heads {
		for b := pmem.Addr(recovered(a.heads[c].Addr())); b != pmem.NilAddr; {
			i, ok := v.blockAt(b)
			if !ok || v.blocks[i].free || int(v.blocks[i].class) != c {
				break
			}
			v.blocks[i].free = true
			v.free++
			b = pmem.Addr(recovered(b + hdrNextOff))
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
