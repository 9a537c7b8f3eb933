package frame

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"runtime"
	"sync"

	"github.com/respct/respct/internal/pmem"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ImageSource is the reader side of a persistent image: pmem.Heap satisfies
// the shape via HeapSource, tests use BytesSource.
type ImageSource interface {
	// ImageBytes is the image length in bytes (a multiple of pmem.LineSize).
	ImageBytes() int64
	// ReadImageAt fills p from the image at off. Offsets and lengths are
	// multiples of the word size; the engine only issues line-aligned reads.
	ReadImageAt(p []byte, off int64) error
}

// HeapSource adapts a pmem.Heap's persistent image to ImageSource.
type HeapSource struct {
	H *pmem.Heap // the heap whose persistent image is snapshotted
}

// ImageBytes returns the heap's persistent image size.
func (s HeapSource) ImageBytes() int64 { return s.H.ImageSize() }

// ReadImageAt reads the persistent image (not the volatile one): frames must
// capture exactly what survives a crash.
func (s HeapSource) ReadImageAt(p []byte, off int64) error {
	return s.H.ReadPersistentAt(p, off)
}

// BytesSource adapts an in-memory image to ImageSource.
type BytesSource []byte

// ImageBytes returns the buffer length.
func (s BytesSource) ImageBytes() int64 { return int64(len(s)) }

// ReadImageAt copies out of the buffer.
func (s BytesSource) ReadImageAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(s)) {
		return fmt.Errorf("frame: image read [%d,%d) outside %d-byte image", off, off+int64(len(p)), len(s))
	}
	copy(p, s[off:])
	return nil
}

// encodedFrame is one frame record ready to be written in order.
type encodedFrame struct {
	hdr    frameHdr
	bitmap []byte
	body   []byte
}

// WriteFull writes a full frame set of src to w and returns its description.
// Output bytes are a pure function of the image and params — never of the
// worker count.
func WriteFull(w io.Writer, src ImageSource, p Params) (*SetInfo, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	size := src.ImageBytes()
	if size <= 0 || size%pmem.LineSize != 0 {
		return nil, fmt.Errorf("frame: image size %d is not a positive multiple of %d", size, pmem.LineSize)
	}
	hdr := header{kind: KindFull, compression: p.Compression, frameBytes: p.FrameBytes, imageBytes: size}
	frames := int((size + int64(p.FrameBytes) - 1) / int64(p.FrameBytes))
	toEncode := make([]int, frames)
	for i := range toEncode {
		toEncode[i] = i
	}
	return writeSet(w, hdr, toEncode, p.Workers, func(i int) (encodedFrame, error) {
		off := int64(i) * int64(p.FrameBytes)
		raw := make([]byte, min64(int64(p.FrameBytes), size-off))
		if err := src.ReadImageAt(raw, off); err != nil {
			return encodedFrame{}, err
		}
		return finishFrame(i, nil, raw, p.Compression)
	})
}

// WriteDelta writes a delta set carrying only the lines whose bits are set
// in churn (one bit per image line, line i at word i/64 bit i%64 — what a
// Store's churn window harvests).
// Frames with no churned line are omitted entirely. Output bytes are again
// independent of the worker count.
func WriteDelta(w io.Writer, src ImageSource, churn []uint64, p Params) (*SetInfo, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	size := src.ImageBytes()
	if size <= 0 || size%pmem.LineSize != 0 {
		return nil, fmt.Errorf("frame: image size %d is not a positive multiple of %d", size, pmem.LineSize)
	}
	totalLines := int(size / pmem.LineSize)
	if have := len(churn) * 64; have < totalLines {
		return nil, fmt.Errorf("frame: churn bitmap covers %d lines, image has %d", have, totalLines)
	}
	frameLines := p.FrameBytes / pmem.LineSize
	frames := int((size + int64(p.FrameBytes) - 1) / int64(p.FrameBytes))
	var toEncode []int
	for i := 0; i < frames; i++ {
		lo, hi := i*frameLines, min(frameLines*(i+1), totalLines)
		if bitRangeAny(churn, lo, hi) {
			toEncode = append(toEncode, i)
		}
	}
	hdr := header{kind: KindDelta, compression: p.Compression, frameBytes: p.FrameBytes, imageBytes: size}
	return writeSet(w, hdr, toEncode, p.Workers, func(i int) (encodedFrame, error) {
		lo, hi := i*frameLines, min(frameLines*(i+1), totalLines)
		bitmap := make([]byte, (hi-lo+7)/8)
		var raw []byte
		for line := lo; line < hi; line++ {
			if churn[line/64]&(1<<(line%64)) == 0 {
				continue
			}
			rel := line - lo
			bitmap[rel/8] |= 1 << (rel % 8)
			n := len(raw)
			raw = append(raw, make([]byte, pmem.LineSize)...)
			if err := src.ReadImageAt(raw[n:], int64(line)*pmem.LineSize); err != nil {
				return encodedFrame{}, err
			}
		}
		return finishFrame(i, bitmap, raw, p.Compression)
	})
}

// finishFrame digests and (maybe) compresses one frame's payload.
func finishFrame(index int, bitmap, raw []byte, c Compression) (encodedFrame, error) {
	ef := encodedFrame{
		hdr: frameHdr{
			index:     index,
			enc:       CompressNone,
			rawLen:    len(raw),
			compLen:   len(raw),
			bitmapLen: len(bitmap),
			digest:    frameDigest(index, bitmap, raw),
		},
		bitmap: bitmap,
		body:   raw,
	}
	if c == CompressFlate && len(raw) > 0 {
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return ef, err
		}
		if _, err := fw.Write(raw); err != nil {
			return ef, err
		}
		if err := fw.Close(); err != nil {
			return ef, err
		}
		// Deterministic per-frame fallback: flate only when it shrinks.
		if buf.Len() < len(raw) {
			ef.hdr.enc = CompressFlate
			ef.hdr.compLen = buf.Len()
			ef.body = buf.Bytes()
		}
	}
	return ef, nil
}

// writeSet runs the encoder over toEncode in batches of `workers` goroutines
// and writes each batch's records in frame order, so the container bytes are
// identical for every worker count while encoding (the expensive part —
// image reads, digests, compression) happens in parallel.
func writeSet(w io.Writer, hdr header, toEncode []int, workers int, enc func(i int) (encodedFrame, error)) (*SetInfo, error) {
	if _, err := w.Write(hdr.encode()); err != nil {
		return nil, err
	}
	off := int64(headerSize)
	fold := newDigestFold(hdr)
	entries := make([]indexEntry, 0, len(toEncode))
	lines := 0
	for base := 0; base < len(toEncode); base += workers {
		n := min(workers, len(toEncode)-base)
		recs := make([]encodedFrame, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for j := 0; j < n; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				recs[j], errs[j] = enc(toEncode[base+j])
			}(j)
		}
		wg.Wait()
		for j := 0; j < n; j++ {
			if errs[j] != nil {
				return nil, errs[j]
			}
			ef := recs[j]
			recLen := frameHdrSize + len(ef.bitmap) + len(ef.body)
			for _, part := range [][]byte{ef.hdr.encode(), ef.bitmap, ef.body} {
				if _, err := w.Write(part); err != nil {
					return nil, err
				}
			}
			entries = append(entries, indexEntry{index: ef.hdr.index, recordLen: recLen, offset: off})
			fold = fold.word(ef.hdr.digest)
			lines += ef.hdr.rawLen / pmem.LineSize
			off += int64(recLen)
		}
	}
	idx := encodeIndex(entries)
	if _, err := w.Write(idx); err != nil {
		return nil, err
	}
	t := trailer{indexOff: off, frameCount: len(entries), setDigest: uint64(fold), imageBytes: hdr.imageBytes}
	if _, err := w.Write(t.encode()); err != nil {
		return nil, err
	}
	return &SetInfo{
		Kind:       hdr.kind,
		FrameBytes: hdr.frameBytes,
		ImageBytes: hdr.imageBytes,
		Frames:     len(entries),
		Lines:      lines,
		Bytes:      off + int64(len(idx)) + trailerSize,
		Digest:     uint64(fold),
	}, nil
}

// bitRangeAny reports whether any bit in [lo,hi) is set.
func bitRangeAny(bm []uint64, lo, hi int) bool {
	for w := lo / 64; w <= (hi-1)/64; w++ {
		x := bm[w]
		if w == lo/64 {
			x &= ^uint64(0) << (lo % 64)
		}
		if w == (hi-1)/64 && hi%64 != 0 {
			x &= 1<<(hi%64) - 1
		}
		if x != 0 {
			return true
		}
	}
	return false
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
