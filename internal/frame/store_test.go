package frame

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
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

// restoreSet restores the store's certified set into a heap and into
// bytes, requires the two bit-identical, and returns the image.
func restoreSet(t *testing.T, st *Store, workers int) ([]byte, *Manifest) {
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
		t.Fatal("set restored into a heap differs from the set restored into bytes")
	}
	return img, man
}

// TestStoreChain snapshots a live heap three times: each snapshot replaces
// the certified set (the store holds the manifest and one container), the
// sequence advances, and the restore equals the then-current persistent
// image.
func TestStoreChain(t *testing.T) {
	fs := NewMemFS()
	st, err := NewStore(fs, Params{FrameBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	h := pmem.New(pmem.Config{Size: 1 << 20})
	for round := 1; round <= 3; round++ {
		touchLines(h, round*(1<<17), 10, uint64(0xB0+round))
		res, err := st.Snapshot(HeapSource{h}, uint64(round))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("full-%06d.fimg", round); res.Name != want {
			t.Fatalf("round %d: wrote %s, want %s", round, res.Name, want)
		}
		if res.Info.Lines != int(h.ImageSize()/pmem.LineSize) {
			t.Fatalf("round %d: set carries %d lines, the image has %d", round, res.Info.Lines, h.ImageSize()/pmem.LineSize)
		}
		names, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(names, []string{ManifestName, res.Name}) {
			t.Fatalf("round %d: store holds %v", round, names)
		}
		img, man := restoreSet(t, st, 4)
		if man.Seq != uint64(round) || len(man.Chain) != 1 || man.Chain[0].Name != res.Name || man.Chain[0].Epoch != uint64(round) {
			t.Fatalf("round %d: manifest %+v", round, man)
		}
		if !bytes.Equal(img, persistentImage(t, h)) {
			t.Fatalf("round %d: restored image differs from persistent image", round)
		}
	}
}

// TestStoreCrashFallsBack kills a snapshot mid-container-write and verifies
// the store still restores the previous certified set, exactly like
// recovery after a real crash; the next store over the same FS garbage-
// collects nothing it shouldn't and writes a fresh full set.
func TestStoreCrashFallsBack(t *testing.T) {
	mem := NewMemFS()
	h := pmem.New(pmem.Config{Size: 1 << 19})
	touchLines(h, 8192, 50, 0xD0)

	st, err := NewStore(mem, Params{FrameBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(HeapSource{h}, 1); err != nil {
		t.Fatal(err)
	}
	certified := persistentImage(t, h)

	// Re-open the store through a crashing FS and die mid-write.
	crash := NewCrashFS(mem, 100) // far less than any container
	st2, err := NewStore(crash, Params{FrameBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	touchLines(h, 1<<17, 20, 0xE0)
	if _, err := st2.Snapshot(HeapSource{h}, 2); err == nil {
		t.Fatal("snapshot survived a crashed FS")
	}
	if !crash.Crashed() {
		t.Fatal("crash budget never fired")
	}

	// A fresh process over the same store: fallback to the certified set.
	st3, err := NewStore(mem, Params{FrameBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	img, man := restoreSet(t, st3, 2)
	if len(man.Chain) != 1 || man.Chain[0].Epoch != 1 {
		t.Fatalf("fallback manifest %+v", man.Chain)
	}
	if !bytes.Equal(img, certified) {
		t.Fatal("fallback image differs from the certified snapshot")
	}

	// The next snapshot replaces the certified set and collects the orphan.
	if _, err := st3.Snapshot(HeapSource{h}, 3); err != nil {
		t.Fatal(err)
	}
	img, _ = restoreSet(t, st3, 1)
	if !bytes.Equal(img, persistentImage(t, h)) {
		t.Fatal("post-crash restore differs from persistent image")
	}
}

// TestDeltaInputsRefused feeds the reader the three marks of an incremental
// delta chain: a manifest chaining a delta onto its full set, a container of
// kind 2 and a frame record with a line bitmap. Each must fail loudly, naming
// what it refused, rather than restore part of an image.
func TestDeltaInputsRefused(t *testing.T) {
	var full bytes.Buffer
	if _, err := WriteFull(&full, BytesSource(testImage(t, 1<<16, 31)), Params{FrameBytes: 1 << 14}); err != nil {
		t.Fatal(err)
	}
	patched := func(at int, v byte) []byte {
		b := append([]byte(nil), full.Bytes()...)
		b[at] = v
		return b
	}
	chained := NewMemFS()
	f, _ := chained.Create(ManifestName)
	f.Write([]byte(`{"version": 1, "seq": 2, "image_bytes": 65536, "frame_bytes": 16384, "compression": "none",
		"chain": [{"name": "full-000001.fimg", "kind": "full"}, {"name": "delta-000002.fimg", "kind": "delta"}]}`))
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		container []byte // restored when set
		store     FS     // opened as a store otherwise
		want      string // the error must say this
	}{
		{name: "delta chain", store: chained, want: "delta-000002.fimg"},
		{name: "kind 2", container: patched(12, 2), want: "kind 2"},
		{name: "line bitmap", container: patched(headerSize+20, 8), want: "8-byte line bitmap"},
	} {
		var errs []error
		if tc.container != nil {
			_, err := RestoreInto(new(BytesSink), bytes.NewReader(tc.container), int64(len(tc.container)), 1)
			errs = append(errs, err)
		} else {
			_, err := NewStore(tc.store, Params{})
			errs = append(errs, err)
		}
		for _, err := range errs {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
			}
		}
	}
}

// TestStoreRestoreEmpty asserts the no-manifest sentinel.
func TestStoreRestoreEmpty(t *testing.T) {
	st, err := NewStore(NewMemFS(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restore(new(BytesSink), 1); err != ErrNoSnapshot {
		t.Fatalf("restore of empty store: %v", err)
	}
}

// TestDirFSStore runs a store against the real directory FS, including the
// reopen path and temp-file invisibility.
func TestDirFSStore(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(DirFS{Dir: dir}, Params{FrameBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	h := pmem.New(pmem.Config{Size: 1 << 19})
	touchLines(h, 4096, 30, 0xF0)
	if _, err := st.Snapshot(HeapSource{h}, 1); err != nil {
		t.Fatal(err)
	}
	touchLines(h, 1<<17, 7, 0xF1)
	if _, err := st.Snapshot(HeapSource{h}, 2); err != nil {
		t.Fatal(err)
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

	st2, err := NewStore(DirFS{Dir: dir}, Params{FrameBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	img, man := restoreSet(t, st2, 4)
	if man.Seq != 2 || len(man.Chain) != 1 {
		t.Fatalf("manifest %+v after reopen", man)
	}
	if !bytes.Equal(img, persistentImage(t, h)) {
		t.Fatal("DirFS restore differs from persistent image")
	}
	if _, err := st2.Snapshot(HeapSource{h}, 3); err != nil {
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
