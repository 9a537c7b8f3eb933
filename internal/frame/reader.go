package frame

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"github.com/respct/respct/internal/pmem"
)

// ImageSink is the writer side of an image being restored, the mirror of
// ImageSource: HeapSink boots a pmem.Heap straight from the frames, BytesSink
// materialises the image in memory.
type ImageSink interface {
	// Format makes the sink an all-zero image of size bytes, dropping what it
	// held. A restore formats its sink before the first frame lands.
	Format(size int64) error
	// WriteImageAt stores p into the image at off. The engine issues only
	// line-aligned writes, concurrently on disjoint ranges, and relies on the
	// sink to refuse a range outside the image.
	WriteImageAt(p []byte, off int64) error
}

// HeapSink restores into a heap it makes itself: no copy of the image exists
// beside the heap's own two arrays.
type HeapSink struct {
	Config pmem.Config // latency model and modes of the heap to make; Size comes from the container
	h      *pmem.Heap
}

// Format makes a fresh heap of size bytes.
func (s *HeapSink) Format(size int64) error {
	cfg := s.Config
	cfg.Size = size
	h := pmem.New(cfg)
	if h.ImageSize() != size {
		return fmt.Errorf("frame: no heap holds an image of %d bytes (the smallest is %d)", size, h.ImageSize())
	}
	s.h = h
	return nil
}

// WriteImageAt fills the persistent and the volatile image alike: the view
// after a reboot onto the restored image.
func (s *HeapSink) WriteImageAt(p []byte, off int64) error { return s.h.FillImageAt(p, off) }

// Heap returns the restored heap once its superblock passes CheckMagic. Call
// it only after the restore returned without error.
func (s *HeapSink) Heap() (*pmem.Heap, error) {
	if s.h == nil {
		return nil, fmt.Errorf("frame: no container was restored")
	}
	if err := s.h.CheckMagic(); err != nil {
		return nil, err
	}
	return s.h, nil
}

// BytesSink restores into an in-memory image.
type BytesSink []byte

// Format replaces the buffer with size zero bytes.
func (s *BytesSink) Format(size int64) error {
	*s = make([]byte, size)
	return nil
}

// WriteImageAt copies into the buffer.
func (s *BytesSink) WriteImageAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(*s)) {
		return fmt.Errorf("frame: image write [%d,%d) outside %d-byte image", off, off+int64(len(p)), len(*s))
	}
	copy((*s)[off:], p)
	return nil
}

// RestoreInto formats dst and restores one container into it, decoding
// frames in parallel with the given worker count (0 means GOMAXPROCS). Every
// frame digest and the set digest are verified; on any error dst holds
// garbage.
func RestoreInto(dst ImageSink, r io.ReaderAt, size int64, workers int) (*SetInfo, error) {
	h, t, entries, err := readShape(r, size)
	if err != nil {
		return nil, err
	}
	if err := dst.Format(h.imageBytes); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = defaultWorkers()
	}
	digests := make([]uint64, len(entries))
	rawLens := make([]int, len(entries))
	errs := make([]error, workers)
	var next int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := decoder{hdr: h, dst: dst}
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= len(entries) {
					return
				}
				e := entries[i]
				rec := d.record(e.recordLen)
				if _, err := r.ReadAt(rec, e.offset); err != nil {
					errs[w] = fmt.Errorf("frame record %d: %w", e.index, err)
					return
				}
				fh, err := d.apply(rec)
				if err != nil {
					errs[w] = err
					return
				}
				if fh.index != e.index {
					errs[w] = fmt.Errorf("frame record at %d: index %d, index section says %d", e.offset, fh.index, e.index)
					return
				}
				digests[i] = fh.digest
				rawLens[i] = fh.rawLen
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return finishRestore(h, t, size, digests, rawLens)
}

// readShape reads header, trailer and index of a random-access container.
func readShape(r io.ReaderAt, size int64) (header, trailer, []indexEntry, error) {
	var h header
	var t trailer
	if size < headerSize+trailerSize {
		return h, t, nil, fmt.Errorf("frame: container of %d bytes is too small", size)
	}
	hb := make([]byte, headerSize)
	if _, err := r.ReadAt(hb, 0); err != nil {
		return h, t, nil, err
	}
	h, err := decodeHeader(hb)
	if err != nil {
		return h, t, nil, err
	}
	tb := make([]byte, trailerSize)
	if _, err := r.ReadAt(tb, size-trailerSize); err != nil {
		return h, t, nil, err
	}
	t, err = decodeTrailer(tb)
	if err != nil {
		return h, t, nil, err
	}
	if t.imageBytes != h.imageBytes {
		return h, t, nil, fmt.Errorf("frame: trailer image size %d != header %d", t.imageBytes, h.imageBytes)
	}
	idxLen := size - trailerSize - t.indexOff
	if idxLen < 8 || idxLen > size {
		return h, t, nil, fmt.Errorf("frame: corrupt index span [%d,%d)", t.indexOff, size-trailerSize)
	}
	ib := make([]byte, idxLen)
	if _, err := r.ReadAt(ib, t.indexOff); err != nil {
		return h, t, nil, err
	}
	entries, err := decodeIndex(ib)
	if err != nil {
		return h, t, nil, err
	}
	if len(entries) != t.frameCount {
		return h, t, nil, fmt.Errorf("frame: index has %d entries, trailer says %d", len(entries), t.frameCount)
	}
	for _, e := range entries {
		if e.offset < headerSize || e.recordLen < frameHdrSize || e.offset+int64(e.recordLen) > t.indexOff {
			return h, t, nil, fmt.Errorf("frame: index entry %d outside record region", e.index)
		}
	}
	return h, t, entries, nil
}

// decoder is one restore worker's state: the container it decodes, the sink
// its frames land in, and scratch reused from record to record, so a restore
// holds a frame or two per worker beside the image, never a copy of it.
type decoder struct {
	hdr      header
	dst      ImageSink
	rec, raw []byte
	inflate  io.ReadCloser
}

// record returns the scratch record buffer sized to n bytes.
func (d *decoder) record(n int) []byte {
	if n > cap(d.rec) {
		d.rec = make([]byte, n)
	}
	return d.rec[:n]
}

// apply decodes one frame record, verifies its digest and writes its span
// into the sink — the one decode path behind every restore. Lengths no frame
// of this container can have are refused before anything is sized by them.
// Frames cover disjoint image ranges, so concurrent decoders need no locking.
func (d *decoder) apply(rec []byte) (frameHdr, error) {
	fh, err := decodeFrameHdr(rec)
	if err != nil {
		return fh, err
	}
	if fh.rawLen > d.hdr.frameBytes || fh.compLen > fh.rawLen {
		return fh, fmt.Errorf("frame %d: lengths raw=%d comp=%d exceed a %d-byte frame", fh.index, fh.rawLen, fh.compLen, d.hdr.frameBytes)
	}
	if len(rec) != fh.recordLen() {
		return fh, fmt.Errorf("frame %d: record is %d bytes, header claims %d", fh.index, len(rec), fh.recordLen())
	}
	body := rec[frameHdrSize:]
	raw := body
	switch fh.enc {
	case CompressNone:
		if fh.compLen != fh.rawLen {
			return fh, fmt.Errorf("frame %d: raw body length %d != %d", fh.index, fh.compLen, fh.rawLen)
		}
	case CompressFlate:
		if d.inflate == nil {
			d.inflate = flate.NewReader(nil)
		}
		if err := d.inflate.(flate.Resetter).Reset(bytes.NewReader(body), nil); err != nil {
			return fh, err
		}
		if cap(d.raw) < fh.rawLen {
			d.raw = make([]byte, fh.rawLen)
		}
		raw = d.raw[:fh.rawLen]
		if _, err := io.ReadFull(d.inflate, raw); err != nil {
			return fh, fmt.Errorf("frame %d: inflate: %w", fh.index, err)
		}
		// The stream must end exactly at rawLen.
		var one [1]byte
		if n, _ := d.inflate.Read(one[:]); n != 0 {
			return fh, fmt.Errorf("frame %d: inflated body longer than %d", fh.index, fh.rawLen)
		}
	}
	if got := frameDigest(fh.index, raw); got != fh.digest {
		return fh, fmt.Errorf("frame %d: digest %#x, record claims %#x", fh.index, got, fh.digest)
	}
	off := int64(fh.index) * int64(d.hdr.frameBytes)
	if off/int64(d.hdr.frameBytes) != int64(fh.index) || off >= d.hdr.imageBytes {
		return fh, fmt.Errorf("frame %d: outside %d-byte image", fh.index, d.hdr.imageBytes)
	}
	if err := d.dst.WriteImageAt(raw, off); err != nil {
		return fh, fmt.Errorf("frame %d: %w", fh.index, err)
	}
	return fh, nil
}

// finishRestore folds the decoded frame digests and checks them against the
// trailer.
func finishRestore(h header, t trailer, size int64, digests []uint64, rawLens []int) (*SetInfo, error) {
	if len(digests) != t.frameCount {
		return nil, fmt.Errorf("frame: decoded %d frames, trailer says %d", len(digests), t.frameCount)
	}
	fold := newDigestFold(h)
	lines := 0
	for i, d := range digests {
		fold = fold.word(d)
		lines += rawLens[i] / pmem.LineSize
	}
	if uint64(fold) != t.setDigest {
		return nil, fmt.Errorf("frame: set digest %#x, trailer claims %#x", uint64(fold), t.setDigest)
	}
	return &SetInfo{
		FrameBytes: h.frameBytes,
		ImageBytes: h.imageBytes,
		Frames:     t.frameCount,
		Lines:      lines,
		Bytes:      size,
		Digest:     t.setDigest,
	}, nil
}
