package frame

import (
	"bytes"
	"hash/crc64"
	"math/rand"
	"testing"

	"github.com/respct/respct/internal/pmem"
)

// testImage builds a deterministic pseudo-random image of n bytes behind a
// real superblock line, so it also boots as a heap.
func testImage(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	if n%pmem.LineSize != 0 {
		t.Fatalf("test image size %d not line-aligned", n)
	}
	img := make([]byte, n)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(img)
	if err := pmem.New(pmem.Config{Size: int64(n)}).ReadPersistentAt(img[:pmem.LineSize], 0); err != nil {
		t.Fatal(err)
	}
	return img
}

// persistentImage reads the heap's whole persistent image.
func persistentImage(t *testing.T, h *pmem.Heap) []byte {
	t.Helper()
	img := make([]byte, h.ImageSize())
	if err := h.ReadPersistentAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return img
}

// bootedImage returns the persistent image of a heap a restore just made,
// having checked that the superblock passes and that the volatile image — the
// post-reboot view — equals the persistent one.
func bootedImage(t *testing.T, sink *HeapSink) []byte {
	t.Helper()
	h, err := sink.Heap()
	if err != nil {
		t.Fatal(err)
	}
	img := persistentImage(t, h)
	if !bytes.Equal(h.LoadBytes(0, len(img)), img) {
		t.Fatal("restored heap's volatile image differs from its persistent image")
	}
	return img
}

var workerMatrix = []int{1, 2, 4, 8}

// TestFullDeterminismMatrix is the frame determinism gate: writing the same
// image at 1/2/4/8 workers must produce byte-identical containers and equal
// set digests, and every worker count must restore the identical image —
// with and without compression. The digest must also be invariant under the
// compression mode.
func TestFullDeterminismMatrix(t *testing.T) {
	img := testImage(t, 1<<20, 7)
	// Make some frames compressible so flate's per-frame fallback exercises
	// both encodings in one container (the superblock line stays).
	for i := 3 * pmem.LineSize; i < 1<<19; i += 3 * pmem.LineSize {
		copy(img[i:i+pmem.LineSize], make([]byte, pmem.LineSize))
	}
	var digestNone uint64
	for _, comp := range []Compression{CompressNone, CompressFlate} {
		var ref []byte
		var refInfo *SetInfo
		for _, w := range workerMatrix {
			var buf bytes.Buffer
			info, err := WriteFull(&buf, BytesSource(img), Params{FrameBytes: 1 << 16, Workers: w, Compression: comp})
			if err != nil {
				t.Fatalf("comp=%v workers=%d: %v", comp, w, err)
			}
			if ref == nil {
				ref, refInfo = buf.Bytes(), info
			} else {
				if !bytes.Equal(buf.Bytes(), ref) {
					t.Fatalf("comp=%v: container bytes differ between 1 and %d workers", comp, w)
				}
				if info.Digest != refInfo.Digest {
					t.Fatalf("comp=%v: digest %#x at %d workers, %#x at 1", comp, info.Digest, w, refInfo.Digest)
				}
			}
			var got BytesSink
			rinfo, err := RestoreInto(&got, bytes.NewReader(buf.Bytes()), int64(buf.Len()), w)
			if err != nil {
				t.Fatalf("comp=%v workers=%d restore: %v", comp, w, err)
			}
			if !bytes.Equal(got, img) {
				t.Fatalf("comp=%v workers=%d: restored image differs", comp, w)
			}
			if rinfo.Digest != info.Digest {
				t.Fatalf("comp=%v workers=%d: restore digest %#x != write digest %#x", comp, w, rinfo.Digest, info.Digest)
			}
			var heap HeapSink
			if _, err := RestoreInto(&heap, bytes.NewReader(buf.Bytes()), int64(buf.Len()), w); err != nil {
				t.Fatalf("comp=%v workers=%d heap restore: %v", comp, w, err)
			}
			if !bytes.Equal(bootedImage(t, &heap), img) {
				t.Fatalf("comp=%v workers=%d: restored heap differs", comp, w)
			}
		}
		if refInfo.Frames != 16 || refInfo.Lines != len(img)/pmem.LineSize {
			t.Fatalf("comp=%v: info %+v, want 16 frames covering every line", comp, refInfo)
		}
		if comp == CompressNone {
			digestNone = refInfo.Digest
		} else {
			if refInfo.Digest != digestNone {
				t.Fatalf("digest changed under compression: %#x vs %#x", refInfo.Digest, digestNone)
			}
			if refInfo.Bytes >= int64(len(img)) {
				t.Fatalf("flate container (%d bytes) did not shrink a half-zero image (%d bytes)", refInfo.Bytes, len(img))
			}
		}
	}
}

// pinnedImage is a fixed heap image for TestFullSetBytesPinned: a formatted
// 256 KiB heap with 500 seeded words persisted across its first half and one
// 16 KiB frame of seeded words in its second, so under flate some frames
// compress and one stays raw.
func pinnedImage(t *testing.T) *pmem.Heap {
	t.Helper()
	h := pmem.New(pmem.Config{Size: 1 << 18})
	f := h.NewFlusher()
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 500; i++ {
		a := h.DataStart() + pmem.Addr(rng.Intn(1<<14)*pmem.WordSize)
		h.Store64(a, rng.Uint64())
		f.Persist(a)
	}
	for a := pmem.Addr(3 << 16); a < 3<<16+1<<14; a += pmem.WordSize {
		h.Store64(a, rng.Uint64())
		f.Persist(a)
	}
	return h
}

// TestFullSetBytesPinned pins the bytes of a full frame set: for one fixed
// image, the container's length, its set digest and a CRC-64 over the whole
// container, at 1 and 4 workers, raw and deflated. Every store written
// before must still restore, so these constants never change with the code.
func TestFullSetBytesPinned(t *testing.T) {
	h := pinnedImage(t)
	for _, tc := range []struct {
		comp   Compression
		bytes  int64
		digest uint64
		crc    uint64
	}{
		{CompressNone, 263008, 0x64fb34f2e31c6392, 0x363d8a701b098b13},
		{CompressFlate, 24130, 0x64fb34f2e31c6392, 0xa8085608eff2d194},
	} {
		for _, w := range []int{1, 4} {
			var buf bytes.Buffer
			info, err := WriteFull(&buf, HeapSource{h}, Params{FrameBytes: 1 << 14, Workers: w, Compression: tc.comp})
			if err != nil {
				t.Fatal(err)
			}
			crc := crc64.Checksum(buf.Bytes(), crcTab)
			if int64(buf.Len()) != tc.bytes || info.Bytes != tc.bytes || info.Digest != tc.digest || crc != tc.crc {
				t.Errorf("%v at %d workers: %d bytes (info %d), digest %#x, crc %#x; pinned %d bytes, digest %#x, crc %#x",
					tc.comp, w, buf.Len(), info.Bytes, info.Digest, crc, tc.bytes, tc.digest, tc.crc)
			}
		}
	}
}

// TestCorruptionDetected flips one payload byte and expects the frame digest
// check to refuse the container.
func TestCorruptionDetected(t *testing.T) {
	img := testImage(t, 1<<17, 5)
	var buf bytes.Buffer
	if _, err := WriteFull(&buf, BytesSource(img), Params{FrameBytes: 1 << 15}); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	bad[headerSize+frameHdrSize+17] ^= 0x40 // inside the first frame's body
	if _, err := RestoreInto(new(BytesSink), bytes.NewReader(bad), int64(len(bad)), 2); err == nil {
		t.Fatal("corrupt container restored without error")
	}
}

// TestHeapSourceRoundTrip snapshots a live pmem heap through the frame
// engine and reboots a heap from the restored image.
func TestHeapSourceRoundTrip(t *testing.T) {
	h := pmem.New(pmem.Config{Size: 1 << 20})
	f := h.NewFlusher()
	for i := 0; i < 64; i++ {
		a := pmem.Addr(4096 + i*pmem.LineSize)
		h.Store64(a, uint64(0xC0FFEE+i))
		f.Persist(a)
	}
	unflushed := pmem.Addr(1 << 19)
	h.Store64(unflushed, 123) // dirty, never written back: not in the snapshot
	var buf bytes.Buffer
	info, err := WriteFull(&buf, HeapSource{h}, Params{FrameBytes: 1 << 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.ImageBytes != h.ImageSize() {
		t.Fatalf("info image %d, heap %d", info.ImageBytes, h.ImageSize())
	}
	var sink HeapSink
	if _, err := RestoreInto(&sink, bytes.NewReader(buf.Bytes()), int64(buf.Len()), 4); err != nil {
		t.Fatal(err)
	}
	h2, err := sink.Heap()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		a := pmem.Addr(4096 + i*pmem.LineSize)
		if got := h2.Load64(a); got != uint64(0xC0FFEE+i) {
			t.Fatalf("addr %#x: %#x after round trip", a, got)
		}
	}
	if got := h2.Load64(unflushed); got != 0 {
		t.Fatalf("unflushed store leaked into the snapshot: %d", got)
	}
}

// TestHeapSinkJudgesTheImage: pmem.New writes a good magic word into the heap
// a HeapSink makes, so the restore must overwrite the superblock line even
// with zeros — or a container that never held a heap image would boot.
func TestHeapSinkJudgesTheImage(t *testing.T) {
	img := testImage(t, 1<<16, 21)
	copy(img[pmem.WordSize:2*pmem.WordSize], make([]byte, pmem.WordSize)) // the magic word
	var buf bytes.Buffer
	if _, err := WriteFull(&buf, BytesSource(img), Params{FrameBytes: 1 << 14, Compression: CompressFlate}); err != nil {
		t.Fatal(err)
	}
	var sink HeapSink
	if _, err := RestoreInto(&sink, bytes.NewReader(buf.Bytes()), int64(buf.Len()), 2); err != nil {
		t.Fatal(err)
	}
	if h, err := sink.Heap(); err == nil {
		t.Fatalf("image without a magic word booted as a %d-byte heap", h.Size())
	}
	if _, err := new(HeapSink).Heap(); err == nil {
		t.Fatal("a sink nothing was restored into handed out a heap")
	}
}

// FuzzRestore asserts the restore path — readShape, the index decode and the
// frame decoder — never panics on arbitrary input, and that whatever it
// accepts and CheckMagic passes is a usable heap.
func FuzzRestore(f *testing.F) {
	h := pmem.New(pmem.Config{Size: 1 << 16})
	h.Store64(h.DataStart(), 42)
	h.NewFlusher().Persist(h.DataStart())
	var buf bytes.Buffer
	if _, err := WriteFull(&buf, HeapSource{h}, Params{FrameBytes: 1 << 14, Compression: CompressFlate}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	flipped := func(at int) []byte {
		b := append([]byte(nil), valid...)
		b[at] ^= 0x5a
		return b
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipped(3))                             // container magic
	f.Add(flipped(12))                            // kind
	f.Add(flipped(headerSize + 12))               // first frame's raw length
	f.Add(flipped(headerSize + 20))               // first frame's bitmap length
	f.Add(flipped(len(valid) - trailerSize - 20)) // an index entry
	f.Add(flipped(len(valid) - trailerSize + 16)) // set digest
	f.Add(flipped(len(valid) - 1))                // trailer magic
	f.Add([]byte("RESPCTFS garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The header's sizes are trusted for the allocation they describe:
		// keep the fuzzer from asking for terabytes.
		if len(data) >= headerSize {
			if hd, err := decodeHeader(data); err == nil && (hd.imageBytes > 1<<22 || hd.frameBytes > 1<<22) {
				t.Skip()
			}
		}
		var sink HeapSink
		if _, err := RestoreInto(&sink, bytes.NewReader(data), int64(len(data)), 1); err != nil {
			return // rejected: fine
		}
		h, err := sink.Heap()
		if err != nil {
			return
		}
		h.Store64(h.DataStart(), 1)
		if h.Load64(h.DataStart()) != 1 {
			t.Fatal("restored heap not usable")
		}
	})
}
