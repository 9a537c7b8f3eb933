package frame

import (
	"bytes"
	"testing"

	"github.com/respct/respct/internal/pmem"
)

// touchLines persists n distinct lines starting at byte offset base.
func touchLines(h *pmem.Heap, base, n int, v uint64) {
	f := h.NewFlusher()
	for i := 0; i < n; i++ {
		a := pmem.Addr(base + i*pmem.LineSize)
		h.Store64(a, v+uint64(i))
		f.Persist(a)
	}
}

// restoreChain restores the store's certified chain into a heap and into
// bytes, requires the two bit-identical, and returns the image.
func restoreChain(t *testing.T, st *Store, workers int) ([]byte, *Manifest) {
	t.Helper()
	var img BytesSink
	man, err := st.Restore(&img, workers)
	if err != nil {
		t.Fatal(err)
	}
	var heap HeapSink
	if _, err := st.Restore(&heap, workers); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bootedImage(t, &heap), img) {
		t.Fatal("chain restored into a heap differs from the chain restored into bytes")
	}
	return img, man
}

// TestStoreChain drives full → deltas → compaction over a live heap and
// checks every link restores the then-current image, deltas scale with churn
// rather than heap size, and compaction folds the chain back to one full set.
func TestStoreChain(t *testing.T) {
	fs := NewMemFS()
	st, err := NewStore(fs, Params{FrameBytes: 1 << 14, CompactEvery: 3, CompactFactor: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := pmem.New(pmem.Config{Size: 1 << 20})
	touchLines(h, 4096, 200, 0xA0)

	res, err := st.Snapshot(h, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Kind != KindFull || res.Compacted != 0 {
		t.Fatalf("first snapshot: %+v", res)
	}
	fullBytes := res.Info.Bytes

	wantEpoch := uint64(2)
	for round := 0; round < 3; round++ {
		touchLines(h, 1<<18+round*(1<<15), 10, uint64(0xB0+round))
		res, err = st.Snapshot(h, wantEpoch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Info.Kind != KindDelta {
			t.Fatalf("round %d: kind %v, want delta", round, res.Info.Kind)
		}
		if res.Info.Lines < 10 || res.Info.Lines > 40 {
			t.Fatalf("round %d: delta carries %d lines for 10 churned", round, res.Info.Lines)
		}
		if res.Info.Bytes*10 > fullBytes {
			t.Fatalf("round %d: delta %d bytes vs full %d — not scaling with churn", round, res.Info.Bytes, fullBytes)
		}
		img, man := restoreChain(t, st, 4)
		if !bytes.Equal(img, persistentImage(t, h)) {
			t.Fatalf("round %d: restored image differs from persistent image", round)
		}
		if got := man.Chain[len(man.Chain)-1].Epoch; got != wantEpoch {
			t.Fatalf("round %d: chain tip epoch %d, want %d", round, got, wantEpoch)
		}
		wantEpoch++
	}

	// Fourth delta-eligible snapshot trips CompactEvery=3.
	touchLines(h, 1<<19, 5, 0xC0)
	res, err = st.Snapshot(h, wantEpoch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Kind != KindFull || res.Compacted != 4 {
		t.Fatalf("compaction snapshot: kind %v compacted %d, want full/4", res.Info.Kind, res.Compacted)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 { // the new full set + MANIFEST.json
		t.Fatalf("post-compaction store holds %v", names)
	}
	img, man := restoreChain(t, st, 2)
	if len(man.Chain) != 1 || !bytes.Equal(img, persistentImage(t, h)) {
		t.Fatalf("post-compaction restore: chain %d links", len(man.Chain))
	}
}

// TestStoreExtraDirtyUnion passes extra dirty bits (the async runtime's
// pending-line export) and expects them in the delta even without heap churn.
func TestStoreExtraDirtyUnion(t *testing.T) {
	st, err := NewStore(NewMemFS(), Params{FrameBytes: 1 << 14}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := pmem.New(pmem.Config{Size: 1 << 18})
	if _, err := st.Snapshot(h, 1, nil); err != nil {
		t.Fatal(err)
	}
	extra := make([]uint64, int(h.ImageSize())/pmem.LineSize/64)
	extra[1] = 0b1011 // lines 64, 65, 67
	res, err := st.Snapshot(h, 2, extra)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Kind != KindDelta || res.Info.Lines != 3 {
		t.Fatalf("delta with extra dirty: %+v", res.Info)
	}
}

// TestStoreCrashFallsBack kills a snapshot mid-container-write and verifies
// the store still restores the previous certified chain, exactly like
// recovery after a real crash; the next store over the same FS garbage-
// collects nothing it shouldn't and writes a fresh full set.
func TestStoreCrashFallsBack(t *testing.T) {
	mem := NewMemFS()
	h := pmem.New(pmem.Config{Size: 1 << 19})
	touchLines(h, 8192, 50, 0xD0)

	st, err := NewStore(mem, Params{FrameBytes: 1 << 14}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(h, 1, nil); err != nil {
		t.Fatal(err)
	}
	certified := persistentImage(t, h)

	// Re-open the chain through a crashing FS and die mid-write.
	crash := NewCrashFS(mem, 100) // far less than any container
	st2, err := NewStore(crash, Params{FrameBytes: 1 << 14}, nil)
	if err != nil {
		t.Fatal(err)
	}
	touchLines(h, 1<<17, 20, 0xE0)
	if _, err := st2.Snapshot(h, 2, nil); err == nil {
		t.Fatal("snapshot survived a crashed FS")
	}
	if !crash.Crashed() {
		t.Fatal("crash budget never fired")
	}

	// A fresh process over the same store: fallback to the certified chain.
	st3, err := NewStore(mem, Params{FrameBytes: 1 << 14}, nil)
	if err != nil {
		t.Fatal(err)
	}
	img, man := restoreChain(t, st3, 2)
	if len(man.Chain) != 1 || man.Chain[0].Epoch != 1 {
		t.Fatalf("fallback chain %+v", man.Chain)
	}
	if !bytes.Equal(img, certified) {
		t.Fatal("fallback image differs from the certified snapshot")
	}

	// The store writes a full set next (lineage broken by the failure).
	res, err := st3.Snapshot(h, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Kind != KindFull {
		t.Fatalf("post-crash snapshot kind %v, want full", res.Info.Kind)
	}
	img, _ = restoreChain(t, st3, 1)
	if !bytes.Equal(img, persistentImage(t, h)) {
		t.Fatal("post-crash restore differs from persistent image")
	}
}

// TestStoreRestoreEmpty asserts the no-manifest sentinel.
func TestStoreRestoreEmpty(t *testing.T) {
	st, err := NewStore(NewMemFS(), Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restore(new(BytesSink), 1); err != ErrNoSnapshot {
		t.Fatalf("restore of empty store: %v", err)
	}
}

// TestDirFSStore runs a chain against the real directory FS, including the
// reopen path and temp-file invisibility.
func TestDirFSStore(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(DirFS{Dir: dir}, Params{FrameBytes: 1 << 14}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := pmem.New(pmem.Config{Size: 1 << 19})
	touchLines(h, 4096, 30, 0xF0)
	if _, err := st.Snapshot(h, 1, nil); err != nil {
		t.Fatal(err)
	}
	touchLines(h, 1<<17, 7, 0xF1)
	if res, err := st.Snapshot(h, 2, nil); err != nil || res.Info.Kind != KindDelta {
		t.Fatalf("delta on DirFS: %v %+v", err, res)
	}

	// Simulate a crashed writer's leftover: a temp file must be ignored by
	// restore and collected by the next snapshot's gc.
	f, err := DirFS{Dir: dir}.Create("full-000099.fimg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn")); err != nil {
		t.Fatal(err)
	}
	// Never committed — the *os.File handle stays, as after a crash.

	st2, err := NewStore(DirFS{Dir: dir}, Params{FrameBytes: 1 << 14}, nil)
	if err != nil {
		t.Fatal(err)
	}
	img, man := restoreChain(t, st2, 4)
	if len(man.Chain) != 2 {
		t.Fatalf("chain %d links after reopen", len(man.Chain))
	}
	if !bytes.Equal(img, persistentImage(t, h)) {
		t.Fatal("DirFS restore differs from persistent image")
	}
	if _, err := st2.Snapshot(h, 3, nil); err != nil {
		t.Fatal(err)
	}
	names, err := DirFS{Dir: dir}.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if isTempName(n) {
			t.Fatalf("temp leftover %s survived gc", n)
		}
	}
}
