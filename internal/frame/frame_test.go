package frame

import (
	"bytes"
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

// TestStreamRestoreMatchesRandomAccess decodes the same container via the
// sequential reader and compares.
func TestStreamRestoreMatchesRandomAccess(t *testing.T) {
	img := testImage(t, 1<<19, 9)
	var buf bytes.Buffer
	info, err := WriteFull(&buf, BytesSource(img), Params{FrameBytes: 1 << 16, Compression: CompressFlate})
	if err != nil {
		t.Fatal(err)
	}
	var got BytesSink
	sinfo, err := RestoreStream(&got, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("stream-restored image differs")
	}
	rinfo, err := RestoreInto(new(BytesSink), bytes.NewReader(buf.Bytes()), int64(buf.Len()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if *sinfo != *rinfo || sinfo.Digest != info.Digest || sinfo.Frames != info.Frames || sinfo.Lines != info.Lines {
		t.Fatalf("stream info %+v, random-access info %+v, write info %+v", sinfo, rinfo, info)
	}
	var heap HeapSink
	if _, err := RestoreStream(&heap, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bootedImage(t, &heap), img) {
		t.Fatal("stream-restored heap differs")
	}
}

// TestDeltaCarriesOnlyChurn writes a delta for a sparse churn set and checks
// (a) only churned lines ride, so delta bytes scale with churn, not heap
// size; (b) applying the delta onto the base reproduces the new image;
// (c) delta bytes are deterministic across worker counts.
func TestDeltaCarriesOnlyChurn(t *testing.T) {
	const size = 1 << 21
	base := testImage(t, size, 11)
	next := append([]byte(nil), base...)
	totalLines := size / pmem.LineSize
	churn := make([]uint64, (totalLines+63)/64)
	rng := rand.New(rand.NewSource(13))
	churned := map[int]bool{}
	for len(churned) < 100 {
		line := rng.Intn(totalLines)
		if churned[line] {
			continue
		}
		churned[line] = true
		churn[line/64] |= 1 << (line % 64)
		rng.Read(next[line*pmem.LineSize : (line+1)*pmem.LineSize])
	}
	// One extra bit over an UNchanged line: conservative churn may re-carry
	// identical content and must stay harmless.
	for line := 0; ; line++ {
		if !churned[line] {
			churn[line/64] |= 1 << (line % 64)
			churned[line] = true
			break
		}
	}

	var ref []byte
	var info *SetInfo
	for _, w := range workerMatrix {
		var buf bytes.Buffer
		wi, err := WriteDelta(&buf, BytesSource(next), churn, Params{FrameBytes: 1 << 16, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref, info = buf.Bytes(), wi
		} else if !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("delta bytes differ between 1 and %d workers", w)
		}
	}
	if info.Lines != len(churned) {
		t.Fatalf("delta carries %d lines, churn set %d", info.Lines, len(churned))
	}
	if info.Kind != KindDelta {
		t.Fatalf("kind %v", info.Kind)
	}
	// 101 churned lines ≈ 6.5 KB of payload; the container must be far
	// smaller than the 2 MB image.
	if info.Bytes > int64(len(churned)*pmem.LineSize*4) {
		t.Fatalf("delta is %d bytes for %d churned lines", info.Bytes, len(churned))
	}

	got := BytesSink(append([]byte(nil), base...))
	if _, err := RestoreInto(&got, bytes.NewReader(ref), int64(len(ref)), 4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, next) {
		t.Fatal("base+delta != next image")
	}
	// Stream path applies the same delta.
	sgot := BytesSink(append([]byte(nil), base...))
	if _, err := RestoreStream(&sgot, bytes.NewReader(ref)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sgot, next) {
		t.Fatal("stream base+delta != next image")
	}
}

// TestDeltaNeedsBase ensures a delta cannot be restored without its base.
func TestDeltaNeedsBase(t *testing.T) {
	img := testImage(t, 1<<16, 3)
	churn := make([]uint64, (len(img)/pmem.LineSize+63)/64)
	churn[0] = 1
	var buf bytes.Buffer
	if _, err := WriteDelta(&buf, BytesSource(img), churn, Params{FrameBytes: 1 << 14}); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreInto(new(BytesSink), bytes.NewReader(buf.Bytes()), int64(buf.Len()), 1); err == nil {
		t.Fatal("delta restored without a base image")
	}
	if _, err := RestoreStream(new(HeapSink), bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("delta streamed into a heap without a base image")
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
	for name, restore := range map[string]func(ImageSink) (*SetInfo, error){
		"random access": func(dst ImageSink) (*SetInfo, error) {
			return RestoreInto(dst, bytes.NewReader(buf.Bytes()), int64(buf.Len()), 2)
		},
		"stream": func(dst ImageSink) (*SetInfo, error) { return RestoreStream(dst, bytes.NewReader(buf.Bytes())) },
	} {
		var sink HeapSink
		if _, err := restore(&sink); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h, err := sink.Heap(); err == nil {
			t.Fatalf("%s: image without a magic word booted as a %d-byte heap", name, h.Size())
		}
	}
	if _, err := new(HeapSink).Heap(); err == nil {
		t.Fatal("a sink nothing was restored into handed out a heap")
	}
}

// FuzzRestoreStream asserts the stream reader never panics on arbitrary
// input, and that whatever it accepts and CheckMagic passes is a usable heap.
func FuzzRestoreStream(f *testing.F) {
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
		if _, err := RestoreStream(&sink, bytes.NewReader(data)); err != nil {
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
