package core

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"github.com/respct/respct/internal/pmem"
)

// imageHeap boots a fresh heap from img, the way a frame restore does.
func imageHeap(t *testing.T, img []byte) *pmem.Heap {
	t.Helper()
	h := pmem.New(pmem.Config{Size: int64(len(img))})
	if err := h.FillImageAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestReturnMagazinesAndLiveImage: freed blocks returned at a checkpoint
// reach the persistent free lists, the live view zeroes exactly their
// payloads and the committed backups, and recovering the live view gives the
// recovery of the full image: the same cells rolled back, bump, free-list
// heads and live data.
func TestReturnMagazinesAndLiveImage(t *testing.T) {
	for _, async := range []bool{false, true} {
		rt, err := NewRuntime(pmem.New(pmem.Config{Size: 4 << 20}), Config{Threads: 1, AsyncFlush: async})
		if err != nil {
			t.Fatal(err)
		}
		th := rt.Thread(0)
		ckpt := func() {
			mustCheckpointSolo(t, rt)
			rt.WaitDrain()
		}
		const n, cells, raw = 40, 2, 3
		var blocks []pmem.Addr
		for i := 0; i < n; i++ {
			p := rt.Arena().Alloc(th, cells, raw)
			for c := 0; c < cells; c++ {
				th.Init(Cell(p, c), uint64(1000*i+c+1))
			}
			for w := 0; w < raw; w++ {
				th.StoreTracked(RawBase(p, cells)+pmem.Addr(w*pmem.WordSize), uint64(i+7))
			}
			blocks = append(blocks, p)
		}
		ckpt()
		for i, p := range blocks {
			th.Update(Cell(p, 0), uint64(5000+i)) // backup = the committed Init value
		}
		ckpt()
		for _, p := range blocks[:n/2] {
			rt.Arena().Free(th, p)
		}
		rt.ReturnMagazines()
		ckpt()
		ckpt()
		// A cell updated in the running epoch keeps its backup.
		th.Update(Cell(blocks[n-1], 1), 77)
		rt.Heap().PersistAll()

		v, err := NewLiveImage(rt.Heap())
		if err != nil {
			t.Fatal(err)
		}
		if got := v.FreeBlocks(); got != n/2 {
			t.Fatalf("async=%v: live view elides %d free blocks, want %d", async, got, n/2)
		}
		size := rt.Heap().ImageSize()
		full := make([]byte, size)
		live := make([]byte, size)
		if err := rt.Heap().ReadPersistentAt(full, 0); err != nil {
			t.Fatal(err)
		}
		if err := v.ReadImageAt(live, 0); err != nil {
			t.Fatal(err)
		}
		word := func(b []byte, a pmem.Addr) uint64 { return binary.LittleEndian.Uint64(b[a:]) }
		for _, p := range blocks[:n/2] {
			for a := p; a < RawBase(p, cells)+raw*pmem.WordSize; a += pmem.WordSize {
				if word(live, a) != 0 {
					t.Fatalf("async=%v: free payload word %#x reads %d", async, uint64(a), word(live, a))
				}
			}
		}
		for i, p := range blocks[n/2:] {
			c := Cell(p, 0).Addr()
			if word(full, c+cellBackupOff) == 0 || word(live, c+cellBackupOff) != 0 || word(live, c) != uint64(5000+n/2+i) {
				t.Fatalf("async=%v: committed cell %#x: full backup %d, live backup %d, live record %d", async,
					uint64(c), word(full, c+cellBackupOff), word(live, c+cellBackupOff), word(live, c))
			}
		}
		if c := Cell(blocks[n-1], 1).Addr(); word(live, c+cellBackupOff) != word(full, c+cellBackupOff) {
			t.Fatalf("async=%v: backup of a cell tagged with the running epoch was zeroed", async)
		}

		var rts []*Runtime
		var reps []*RecoveryReport
		for _, img := range [][]byte{full, live} {
			h := imageHeap(t, img)
			r, rep, err := Recover(h, Config{Threads: 1, AsyncFlush: async}, 1)
			if err != nil {
				t.Fatal(err)
			}
			rts, reps = append(rts, r), append(reps, rep)
		}
		if reps[0].CellsRolledBack != reps[1].CellsRolledBack || reps[1].CellsRolledBack == 0 {
			t.Fatalf("async=%v: cells rolled back: full %d, live %d", async, reps[0].CellsRolledBack, reps[1].CellsRolledBack)
		}
		if a, b := rts[0].Arena(), rts[1].Arena(); a.Stats().Used != b.Stats().Used || !slices.Equal(a.FreeHeads(), b.FreeHeads()) {
			t.Fatalf("async=%v: allocator differs: used %d/%d heads %v/%v", async, a.Stats().Used, b.Stats().Used, a.FreeHeads(), b.FreeHeads())
		}
		for i, p := range blocks[n/2:] {
			for _, r := range rts {
				if got := r.Read(Cell(p, 0)); got != uint64(5000+n/2+i) {
					t.Fatalf("async=%v: live block %d cell 0 = %d", async, i, got)
				}
			}
		}
		// The returned blocks are recycled after the restart, not carved.
		r := rts[1]
		used := r.Arena().Stats().Used
		for i := 0; i < n/2; i++ {
			r.Arena().Alloc(r.Thread(0), cells, raw)
		}
		if got := r.Arena().Stats().Used; got != used {
			t.Fatalf("async=%v: restart carved %d bytes instead of recycling the returned blocks", async, got-used)
		}
	}
}

func TestLiveImageRefusesUnformattedHeap(t *testing.T) {
	if _, err := NewLiveImage(pmem.New(pmem.Config{Size: 1 << 20})); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("unformatted heap: %v", err)
	}
}
