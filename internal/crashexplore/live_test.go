package crashexplore

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"maps"
	"slices"
	"sync"
	"testing"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/crash"
	"github.com/respct/respct/internal/frame"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
)

// imageRecovery is what a recovery of one restored image found.
type imageRecovery struct {
	rep   *core.RecoveryReport
	used  int64
	heads []pmem.Addr
	state map[string]string
}

// recoverImage boots a fresh heap from the image src reads, as a frame
// restore does, and recovers the store on it.
func recoverImage(src frame.ImageSource, cfg core.Config) (*imageRecovery, error) {
	img := make([]byte, src.ImageBytes())
	if err := src.ReadImageAt(img, 0); err != nil {
		return nil, err
	}
	h := pmem.New(pmem.Config{Size: int64(len(img))})
	if err := h.FillImageAt(img, 0); err != nil {
		return nil, err
	}
	rt, rep, err := core.Recover(h, cfg, 1)
	if err != nil {
		return nil, err
	}
	st, err := kv.OpenRespctStoreOpts(rt, 0, kv.StoreOptions{})
	if err != nil {
		return nil, err
	}
	return &imageRecovery{rep: rep, used: rt.Arena().Stats().Used, heads: rt.Arena().FreeHeads(), state: st.SnapshotLogical()}, nil
}

// TestLiveViewRecoversLikeFullImage is the live view's differential check:
// at every crash point of the sync and async kv rows — drain-interrupted
// images and lines flushed with the failed epoch's tags among them — the
// live view of the crashed image (core.LiveImage) and the full image are
// each restored onto a fresh heap and recovered, and must agree on the
// logical state, the cells rolled back, the bump cursor and every free-list
// head. The return rows put committed free-list blocks into the images, and
// blocks popped from them in the failed epoch.
func TestLiveViewRecoversLikeFullImage(t *testing.T) {
	rows := []struct {
		name  string
		async bool
	}{
		{"kv-sync", false},
		{"kv-async", true},
		{"kv-return-sync", false},
		{"kv-return-async", true},
	}
	var mu sync.Mutex
	var drained, rolledBack, freeBlocks, freeAndRolled int
	t.Run("rows", func(t *testing.T) {
		for _, row := range rows {
			t.Run(row.name, func(t *testing.T) {
				t.Parallel()
				d, r, f, fr := liveDifferential(t, row.name, row.async)
				mu.Lock()
				drained, rolledBack, freeBlocks, freeAndRolled = drained+d, rolledBack+r, freeBlocks+f, freeAndRolled+fr
				mu.Unlock()
			})
		}
	})
	t.Logf("crash points: %d drain-interrupted, %d with cells rolled back, %d with free blocks elided (%d of them rolling back too)",
		drained, rolledBack, freeBlocks, freeAndRolled)
	if !t.Failed() && (drained == 0 || rolledBack == 0 || freeBlocks == 0 || freeAndRolled == 0) {
		t.Fatal("the crash points miss a case the live view must handle")
	}
}

// liveDifferential compares the two recoveries at every crash point of one
// row (every fifth under -short) and counts the cases the points covered.
func liveDifferential(t *testing.T, name string, async bool) (drained, rolledBack, freeBlocks, freeAndRolled int) {
	w, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := runOnce(w, nil, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := explorerEnv(async, false).Core
	for i, e := range ref.Events() {
		if e.Kind != pmem.EvWriteBack || !e.Changed || testing.Short() && i%5 != 0 {
			continue
		}
		_, run, err := runOnce(w, nil, int64(e.Seq), false)
		if err != nil {
			t.Fatal(err)
		}
		h := run.subject.(*crash.KV).RT.Heap()
		live, err := core.NewLiveImage(h)
		if err != nil {
			t.Fatalf("%s @%d: %v", name, e.Seq, err)
		}
		got := make([]*imageRecovery, 2)
		for j, src := range []frame.ImageSource{frame.HeapSource{H: h}, live} {
			if got[j], err = recoverImage(src, cfg); err != nil {
				t.Fatalf("%s @%d: %v", name, e.Seq, err)
			}
		}
		full, lv := got[0], got[1]
		where := fmt.Sprintf("%s @%d (failed epoch %d)", name, e.Seq, full.rep.FailedEpoch)
		if lv.rep.CellsRolledBack != full.rep.CellsRolledBack || lv.rep.DrainInterrupted != full.rep.DrainInterrupted ||
			lv.rep.CollisionsApplied != full.rep.CollisionsApplied {
			t.Fatalf("%s: live view rolled back %d cells (drain %v, %d replayed), full image %d (drain %v, %d replayed)", where,
				lv.rep.CellsRolledBack, lv.rep.DrainInterrupted, lv.rep.CollisionsApplied,
				full.rep.CellsRolledBack, full.rep.DrainInterrupted, full.rep.CollisionsApplied)
		}
		if lv.used != full.used || !slices.Equal(lv.heads, full.heads) {
			t.Fatalf("%s: live view allocator used %d heads %v, full image %d %v", where, lv.used, lv.heads, full.used, full.heads)
		}
		if !maps.Equal(lv.state, full.state) {
			t.Fatalf("%s: live view recovered %v, full image %v", where, lv.state, full.state)
		}
		if full.rep.DrainInterrupted {
			drained++
		}
		if full.rep.CellsRolledBack > 0 {
			rolledBack++
		}
		if live.FreeBlocks() > 0 {
			freeBlocks++
			if full.rep.CellsRolledBack > 0 {
				freeAndRolled++
			}
		}
	}
	return drained, rolledBack, freeBlocks, freeAndRolled
}

// pinnedLiveViews pins, per row, a digest of the live view at every fifth
// image-changing write-back (the points TestLiveViewRecoversLikeFullImage
// visits under -short, so both modes agree). If a deliberate change to the
// live view or to a row's schedule moves one, re-derive it with
// `go test -run TestLiveViewBytesPinned -v`.
var pinnedLiveViews = map[string]struct {
	points int
	digest uint64
}{
	"kv-sync":         {14, 0x6f7991a42f58b6a9},
	"kv-async":        {17, 0x16117b83019651a5},
	"kv-return-sync":  {22, 0x5274bb84a368bead},
	"kv-return-async": {28, 0x158afd88484852fc},
}

// TestLiveViewBytesPinned pins the bytes core.LiveImage reads at the crash
// points of the four kv rows. The flight ring carries wall-clock stamps, so
// a point folds the crc64 of the live view XOR the full image: every word
// the view zeroes, with its position and value; the ring, which the view
// reads unchanged, folds in as zeros.
func TestLiveViewBytesPinned(t *testing.T) {
	tab := crc64.MakeTable(crc64.ECMA)
	for _, name := range slices.Sorted(maps.Keys(pinnedLiveViews)) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := runOnce(w, nil, -1, false)
			if err != nil {
				t.Fatal(err)
			}
			digest, points := crc64.New(tab), 0
			for i, e := range ref.Events() {
				if e.Kind != pmem.EvWriteBack || !e.Changed || i%5 != 0 {
					continue
				}
				_, run, err := runOnce(w, nil, int64(e.Seq), false)
				if err != nil {
					t.Fatal(err)
				}
				h := run.subject.(*crash.KV).RT.Heap()
				live, err := core.NewLiveImage(h)
				if err != nil {
					t.Fatalf("%s @%d: %v", name, e.Seq, err)
				}
				full := make([]byte, h.ImageSize())
				view := make([]byte, h.ImageSize())
				if err := h.ReadPersistentAt(full, 0); err != nil {
					t.Fatal(err)
				}
				if err := live.ReadImageAt(view, 0); err != nil {
					t.Fatal(err)
				}
				for j := range view {
					view[j] ^= full[j]
				}
				digest.Write(binary.LittleEndian.AppendUint64(nil, crc64.Checksum(view, tab)))
				points++
			}
			pin := pinnedLiveViews[name]
			if got := digest.Sum64(); points != pin.points || got != pin.digest {
				t.Errorf("%s: live-view digest over %d points = %#x, pinned %#x over %d", name, points, got, pin.digest, pin.points)
			}
		})
	}
}
