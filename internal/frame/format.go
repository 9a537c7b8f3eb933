package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"

	"github.com/respct/respct/internal/pmem"
)

// Kind discriminates full frame sets from deltas.
type Kind uint8

const (
	// KindFull marks a container holding every frame of the image.
	KindFull Kind = 1
	// KindDelta marks a container holding, per touched frame, a line bitmap
	// plus only the churned lines.
	KindDelta Kind = 2
)

// String renders the kind for logs and manifests.
func (k Kind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindDelta:
		return "delta"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Compression selects the per-frame payload encoding.
type Compression uint8

const (
	// CompressNone stores frame payloads raw.
	CompressNone Compression = 0
	// CompressFlate deflate-compresses each frame payload independently,
	// falling back to raw for frames that do not shrink. The choice is a
	// deterministic function of the payload, so container bytes stay
	// identical across worker counts.
	CompressFlate Compression = 1
)

// String renders the compression mode for logs and manifests.
func (c Compression) String() string {
	if c == CompressFlate {
		return "flate"
	}
	return "none"
}

// Params configures the engine and the Store policy.
type Params struct {
	// FrameBytes is the image span one frame covers. Must be a multiple of
	// pmem.LineSize; default 1 MiB. Smaller frames parallelise and dedup
	// better, larger frames amortise per-frame overhead.
	FrameBytes int

	// Workers is the number of parallel frame encoders/decoders. Default
	// GOMAXPROCS. Output is bit-identical for every value.
	Workers int

	// Compression is the per-frame payload encoding.
	Compression Compression

	// CompactEvery bounds the delta chain length: the CompactEvery'th
	// snapshot after a full set is written as a new full set. Default 8;
	// negative disables count-based compaction.
	CompactEvery int

	// CompactFactor bounds the chain size: when the chain's delta bytes
	// exceed CompactFactor × the base full set's bytes, the next snapshot
	// compacts. Default 0.5; zero or negative disables size-based
	// compaction.
	CompactFactor float64
}

func (p *Params) defaults() error {
	if p.FrameBytes == 0 {
		p.FrameBytes = 1 << 20
	}
	if p.FrameBytes <= 0 || p.FrameBytes%pmem.LineSize != 0 {
		return fmt.Errorf("frame: FrameBytes %d is not a positive multiple of %d", p.FrameBytes, pmem.LineSize)
	}
	if p.Workers <= 0 {
		p.Workers = defaultWorkers()
	}
	if p.CompactEvery == 0 {
		p.CompactEvery = 8
	}
	if p.CompactFactor == 0 {
		p.CompactFactor = 0.5
	}
	return nil
}

// SetInfo describes one written or decoded container.
type SetInfo struct {
	// Kind is the container kind (full or delta).
	Kind Kind
	// FrameBytes is the frame span the container was written with.
	FrameBytes int
	// ImageBytes is the size of the image the container (chain) restores.
	ImageBytes int64
	// Frames is the number of frame records in the container (for deltas,
	// only touched frames carry a record).
	Frames int
	// Lines is the number of 64-byte lines the container carries — the
	// whole image for a full set, the churned lines for a delta.
	Lines int
	// Bytes is the encoded container size.
	Bytes int64
	// Digest folds the per-frame digests in frame order; equal digests mean
	// equal decoded bytes, independent of worker count and compression.
	Digest uint64
}

// Container geometry. All integers are little-endian.
const (
	headerSize     = 48
	frameHdrSize   = 32
	indexEntrySize = 16
	trailerSize    = 40

	formatVersion = 1

	frameMagic = 0x454D5246 // "FRME"
	indexMagic = 0x58444E49 // "INDX"
)

var (
	containerMagic = [8]byte{'R', 'E', 'S', 'P', 'C', 'T', 'F', 'S'}
	trailerMagic   = [8]byte{'R', 'E', 'S', 'P', 'C', 'T', 'F', 'E'}

	// crcTab is the per-frame digest polynomial (ECMA, the common CRC-64).
	crcTab = crc64.MakeTable(crc64.ECMA)
)

// header is the fixed container preamble.
type header struct {
	kind        Kind
	compression Compression
	frameBytes  int
	imageBytes  int64
}

func (h header) encode() []byte {
	b := make([]byte, headerSize)
	copy(b, containerMagic[:])
	binary.LittleEndian.PutUint32(b[8:], formatVersion)
	b[12] = byte(h.kind)
	b[13] = byte(h.compression)
	binary.LittleEndian.PutUint64(b[16:], uint64(h.frameBytes))
	binary.LittleEndian.PutUint64(b[24:], uint64(h.imageBytes))
	return b
}

func decodeHeader(b []byte) (header, error) {
	var h header
	if len(b) < headerSize {
		return h, fmt.Errorf("frame: truncated container header (%d bytes)", len(b))
	}
	if [8]byte(b[:8]) != containerMagic {
		return h, fmt.Errorf("frame: bad container magic %q", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != formatVersion {
		return h, fmt.Errorf("frame: unsupported container version %d", v)
	}
	h.kind = Kind(b[12])
	if h.kind != KindFull && h.kind != KindDelta {
		return h, fmt.Errorf("frame: bad container kind %d", b[12])
	}
	h.compression = Compression(b[13])
	if h.compression != CompressNone && h.compression != CompressFlate {
		return h, fmt.Errorf("frame: bad compression mode %d", b[13])
	}
	h.frameBytes = int(binary.LittleEndian.Uint64(b[16:]))
	h.imageBytes = int64(binary.LittleEndian.Uint64(b[24:]))
	if h.frameBytes <= 0 || h.frameBytes%pmem.LineSize != 0 {
		return h, fmt.Errorf("frame: corrupt frame span %d", h.frameBytes)
	}
	if h.imageBytes <= 0 || h.imageBytes%pmem.LineSize != 0 {
		return h, fmt.Errorf("frame: corrupt image size %d", h.imageBytes)
	}
	return h, nil
}

// frameHdr is the per-record preamble. enc records the encoding actually
// used for this frame's body (flate containers fall back to raw per frame
// when compression does not shrink).
type frameHdr struct {
	index     int
	enc       Compression
	rawLen    int // body bytes before compression
	compLen   int // body bytes as stored
	bitmapLen int // line-bitmap bytes (0 for full frames)
	digest    uint64
}

// recordLen is the whole record's size: preamble, bitmap, stored body.
func (f frameHdr) recordLen() int { return frameHdrSize + f.bitmapLen + f.compLen }

func (f frameHdr) encode() []byte {
	b := make([]byte, frameHdrSize)
	binary.LittleEndian.PutUint32(b[0:], frameMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(f.index))
	binary.LittleEndian.PutUint32(b[8:], uint32(f.enc))
	binary.LittleEndian.PutUint32(b[12:], uint32(f.rawLen))
	binary.LittleEndian.PutUint32(b[16:], uint32(f.compLen))
	binary.LittleEndian.PutUint32(b[20:], uint32(f.bitmapLen))
	binary.LittleEndian.PutUint64(b[24:], f.digest)
	return b
}

func decodeFrameHdr(b []byte) (frameHdr, error) {
	var f frameHdr
	if len(b) < frameHdrSize {
		return f, fmt.Errorf("frame: truncated frame header (%d bytes)", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != frameMagic {
		return f, fmt.Errorf("frame: bad frame magic %#x", m)
	}
	f.index = int(binary.LittleEndian.Uint32(b[4:]))
	f.enc = Compression(binary.LittleEndian.Uint32(b[8:]))
	f.rawLen = int(binary.LittleEndian.Uint32(b[12:]))
	f.compLen = int(binary.LittleEndian.Uint32(b[16:]))
	f.bitmapLen = int(binary.LittleEndian.Uint32(b[20:]))
	f.digest = binary.LittleEndian.Uint64(b[24:])
	if f.enc != CompressNone && f.enc != CompressFlate {
		return f, fmt.Errorf("frame %d: bad body encoding %d", f.index, f.enc)
	}
	if f.rawLen < 0 || f.compLen < 0 || f.bitmapLen < 0 || f.rawLen%pmem.LineSize != 0 {
		return f, fmt.Errorf("frame %d: corrupt lengths raw=%d comp=%d bitmap=%d", f.index, f.rawLen, f.compLen, f.bitmapLen)
	}
	return f, nil
}

// frameDigest is the per-frame content digest: the frame index, the line
// bitmap and the uncompressed body. Computed pre-compression so it is
// invariant under the compression mode.
func frameDigest(index int, bitmap, raw []byte) uint64 {
	var ib [4]byte
	binary.LittleEndian.PutUint32(ib[:], uint32(index))
	d := crc64.Update(0, crcTab, ib[:])
	d = crc64.Update(d, crcTab, bitmap)
	return crc64.Update(d, crcTab, raw)
}

// digestFold accumulates the set digest: FNV-1a over the header identity and
// the per-frame digests in frame order.
type digestFold uint64

func newDigestFold(h header) digestFold {
	d := digestFold(1469598103934665603)
	d = d.word(uint64(h.kind))
	d = d.word(uint64(h.frameBytes))
	d = d.word(uint64(h.imageBytes))
	return d
}

func (d digestFold) word(x uint64) digestFold {
	const prime64 = 1099511628211
	for i := 0; i < 8; i++ {
		d ^= digestFold(x & 0xff)
		d *= prime64
		x >>= 8
	}
	return d
}

// indexEntry locates one frame record inside the container.
type indexEntry struct {
	index     int
	recordLen int
	offset    int64
}

func encodeIndex(entries []indexEntry) []byte {
	b := make([]byte, 8+len(entries)*indexEntrySize)
	binary.LittleEndian.PutUint32(b[0:], indexMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(entries)))
	for i, e := range entries {
		o := 8 + i*indexEntrySize
		binary.LittleEndian.PutUint32(b[o:], uint32(e.index))
		binary.LittleEndian.PutUint32(b[o+4:], uint32(e.recordLen))
		binary.LittleEndian.PutUint64(b[o+8:], uint64(e.offset))
	}
	return b
}

func decodeIndex(b []byte) ([]indexEntry, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("frame: truncated index (%d bytes)", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != indexMagic {
		return nil, fmt.Errorf("frame: bad index magic %#x", m)
	}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if len(b) < 8+n*indexEntrySize {
		return nil, fmt.Errorf("frame: index claims %d entries in %d bytes", n, len(b))
	}
	entries := make([]indexEntry, n)
	for i := range entries {
		o := 8 + i*indexEntrySize
		entries[i] = indexEntry{
			index:     int(binary.LittleEndian.Uint32(b[o:])),
			recordLen: int(binary.LittleEndian.Uint32(b[o+4:])),
			offset:    int64(binary.LittleEndian.Uint64(b[o+8:])),
		}
	}
	return entries, nil
}

// trailer is the fixed-size container epilogue, last so a ReaderAt can find
// the index with one tail read.
type trailer struct {
	indexOff   int64
	frameCount int
	setDigest  uint64
	imageBytes int64
}

func (t trailer) encode() []byte {
	b := make([]byte, trailerSize)
	binary.LittleEndian.PutUint64(b[0:], uint64(t.indexOff))
	binary.LittleEndian.PutUint64(b[8:], uint64(t.frameCount))
	binary.LittleEndian.PutUint64(b[16:], t.setDigest)
	binary.LittleEndian.PutUint64(b[24:], uint64(t.imageBytes))
	copy(b[32:], trailerMagic[:])
	return b
}

func decodeTrailer(b []byte) (trailer, error) {
	var t trailer
	if len(b) < trailerSize {
		return t, fmt.Errorf("frame: truncated trailer (%d bytes)", len(b))
	}
	if [8]byte(b[32:40]) != trailerMagic {
		return t, fmt.Errorf("frame: bad trailer magic %q", b[32:40])
	}
	t.indexOff = int64(binary.LittleEndian.Uint64(b[0:]))
	t.frameCount = int(binary.LittleEndian.Uint64(b[8:]))
	t.setDigest = binary.LittleEndian.Uint64(b[16:])
	t.imageBytes = int64(binary.LittleEndian.Uint64(b[24:]))
	if t.indexOff < headerSize || t.frameCount < 0 {
		return t, fmt.Errorf("frame: corrupt trailer (index at %d, %d frames)", t.indexOff, t.frameCount)
	}
	return t, nil
}
