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
	hdr  frameHdr
	body []byte
}

// WriteFull writes a full frame set of src to w and returns its description.
// Frames are encoded (image reads, digests, compression) in batches of
// p.Workers goroutines and each batch's records are written in frame order,
// so the output bytes are a pure function of the image and params, never of
// the worker count.
func WriteFull(w io.Writer, src ImageSource, p Params) (*SetInfo, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	size := src.ImageBytes()
	if size <= 0 || size%pmem.LineSize != 0 {
		return nil, fmt.Errorf("frame: image size %d is not a positive multiple of %d", size, pmem.LineSize)
	}
	hdr := header{compression: p.Compression, frameBytes: p.FrameBytes, imageBytes: size}
	frames := int((size + int64(p.FrameBytes) - 1) / int64(p.FrameBytes))
	encode := func(i int) (encodedFrame, error) {
		off := int64(i) * int64(p.FrameBytes)
		raw := make([]byte, min64(int64(p.FrameBytes), size-off))
		if err := src.ReadImageAt(raw, off); err != nil {
			return encodedFrame{}, err
		}
		return finishFrame(i, raw, p.Compression)
	}

	if _, err := w.Write(hdr.encode()); err != nil {
		return nil, err
	}
	off := int64(headerSize)
	fold := newDigestFold(hdr)
	entries := make([]indexEntry, 0, frames)
	for base := 0; base < frames; base += p.Workers {
		n := min(p.Workers, frames-base)
		recs := make([]encodedFrame, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for j := 0; j < n; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				recs[j], errs[j] = encode(base + j)
			}(j)
		}
		wg.Wait()
		for j := 0; j < n; j++ {
			if errs[j] != nil {
				return nil, errs[j]
			}
			ef := recs[j]
			recLen := ef.hdr.recordLen()
			for _, part := range [][]byte{ef.hdr.encode(), ef.body} {
				if _, err := w.Write(part); err != nil {
					return nil, err
				}
			}
			entries = append(entries, indexEntry{index: ef.hdr.index, recordLen: recLen, offset: off})
			fold = fold.word(ef.hdr.digest)
			off += int64(recLen)
		}
	}
	idx := encodeIndex(entries)
	if _, err := w.Write(idx); err != nil {
		return nil, err
	}
	t := trailer{indexOff: off, frameCount: len(entries), setDigest: uint64(fold), imageBytes: size}
	if _, err := w.Write(t.encode()); err != nil {
		return nil, err
	}
	return &SetInfo{
		FrameBytes: p.FrameBytes,
		ImageBytes: size,
		Frames:     len(entries),
		Lines:      int(size / pmem.LineSize),
		Bytes:      off + int64(len(idx)) + trailerSize,
		Digest:     uint64(fold),
	}, nil
}

// finishFrame digests and (maybe) compresses one frame's payload.
func finishFrame(index int, raw []byte, c Compression) (encodedFrame, error) {
	ef := encodedFrame{
		hdr: frameHdr{
			index:   index,
			enc:     CompressNone,
			rawLen:  len(raw),
			compLen: len(raw),
			digest:  frameDigest(index, raw),
		},
		body: raw,
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

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
