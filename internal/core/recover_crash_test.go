package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"github.com/respct/respct/internal/pmem"
)

// recoveryFixture is a crashed persistent image, saved once and restored onto
// a fresh heap for every recovery run, with the trace of an uninterrupted
// Recover(…, 1) of it pinned. If a deliberate change to recovery's
// write-backs or fences moves a pin, re-derive it with
// `go test -run TestRecoverTracePinned -v`.
type recoveryFixture struct {
	name   string
	cfg    Config
	image  func(t *testing.T) []byte
	events int
	hash   uint64
}

var recoveryFixtures = []recoveryFixture{
	{"sync", Config{Threads: 1}, syncCrashImage, 13, 0xacad72aa7aa70e84},
	{"drain", Config{Threads: 1, AsyncFlush: true}, drainCrashImage, 12, 0xb4ae64637a2c7ef},
}

// crashImage crashes h and returns its persistent image.
func crashImage(t *testing.T, h *pmem.Heap) []byte {
	t.Helper()
	h.Crash()
	img := make([]byte, h.ImageSize())
	if err := h.ReadPersistentAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return img
}

// syncCrashImage: a sync heap whose failed epoch updated cells, popped the
// one block on a committed free list, carved a block and stored a root, all
// evicted to NVMM before the crash.
func syncCrashImage(t *testing.T) []byte {
	rt := newTestRuntime(t, 1, 1<<20)
	th := rt.Thread(0)
	var blocks []pmem.Addr
	for i := 0; i < 4; i++ {
		p := rt.Arena().Alloc(th, 2, 1)
		th.Init(Cell(p, 0), uint64(10*i+1))
		th.Init(Cell(p, 1), uint64(10*i+2))
		blocks = append(blocks, p)
	}
	th.Update(rt.RootInCLL(0), uint64(blocks[1]))
	rt.Arena().Free(th, blocks[0])
	rt.ReturnMagazines()
	mustCheckpointSolo(t, rt)
	mustCheckpointSolo(t, rt) // blocks[0] is on a committed free list

	for _, p := range blocks[1:] {
		th.Update(Cell(p, 1), 99)
	}
	rt.Arena().Alloc(th, 2, 1) // pops blocks[0]
	rt.Arena().Alloc(th, 2, 1) // carves
	th.Update(rt.RootInCLL(0), 0)
	rt.Heap().EvictAll()
	return crashImage(t, rt.Heap())
}

// drainCrashImage: an async heap crashed inside a drain window, after the
// next epoch's carve and update collided with the undrained epoch on the bump
// cursor and on a data cell, with every line evicted to NVMM before the crash
// (TestRecoverWalkBeforeReplayRegression's shape).
func drainCrashImage(t *testing.T) []byte {
	rt, err := NewRuntime(pmem.New(pmem.Config{Size: 1 << 20}), Config{Threads: 1, AsyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.Thread(0)
	v := Cell(rt.Arena().AllocCells(th, 1), 0)
	th.Init(v, 1)
	mustCheckpointSolo(t, rt)
	rt.WaitDrain()

	for i := 0; i < 4; i++ {
		th.Init(Cell(rt.Arena().AllocCells(th, 1), 0), uint64(i))
	}
	th.Update(v, 2)
	entered, release := stallDrain(rt)
	mustCheckpointSolo(t, rt)
	<-entered

	th.Init(Cell(rt.Arena().AllocCells(th, 1), 0), 99)
	th.Update(v, 3)
	rt.Heap().EvictAll()
	img := crashImage(t, rt.Heap())
	close(release)
	rt.WaitDrain()
	return img
}

// recoveredState is what recovery leaves behind that a second recovery must
// reproduce: every word of the data region, the root records and the
// allocator's bump and free-list heads.
type recoveredState struct {
	data  []uint64
	roots []uint64
	used  int64
	heads []pmem.Addr
}

func stateOf(rt *Runtime) recoveredState {
	h := rt.Heap()
	var s recoveredState
	for a := rt.Arena().DataBase(); a < pmem.Addr(h.Size()); a += pmem.WordSize {
		s.data = append(s.data, h.Load64(a))
	}
	for i := 0; i < pmem.NumRoots; i++ {
		s.roots = append(s.roots, rt.Read(rt.RootInCLL(i)))
	}
	s.used, s.heads = rt.Arena().Stats().Used, rt.Arena().FreeHeads()
	return s
}

// recordRecovery recovers a fresh heap restored from img under a recorder;
// script runs first, to register crash points on it.
func recordRecovery(t *testing.T, img []byte, cfg Config, script func(*pmem.Recorder)) (*pmem.Heap, *Runtime, *RecoveryReport, []pmem.TraceEvent) {
	t.Helper()
	h := imageHeap(t, img)
	rec := pmem.NewRecorder()
	rec.Attach(h)
	script(rec)
	rt, rep, err := Recover(h, cfg, 1)
	rec.Detach()
	if err != nil {
		t.Fatal(err)
	}
	return h, rt, rep, rec.Events()
}

// TestRecoverTracePinned pins the write-backs and fences of one recovery
// pass over each fixture, and checks that the fixture exercises what it is
// there for.
func TestRecoverTracePinned(t *testing.T) {
	for _, fx := range recoveryFixtures {
		t.Run(fx.name, func(t *testing.T) {
			_, rt, rep, events := recordRecovery(t, fx.image(t), fx.cfg, func(*pmem.Recorder) {})
			if got := pmem.TraceHash(events); len(events) != fx.events || got != fx.hash {
				t.Errorf("recovery trace = {%d, %#x}, pinned {%d, %#x}", len(events), got, fx.events, fx.hash)
			}
			if rep.CellsRolledBack == 0 {
				t.Error("the fixture rolls back no cell")
			}
			if fx.cfg.AsyncFlush && (!rep.DrainInterrupted || rep.CollisionsApplied == 0) {
				t.Errorf("drain interrupted %v, %d collisions applied", rep.DrainInterrupted, rep.CollisionsApplied)
			}
			if !fx.cfg.AsyncFlush && !slices.ContainsFunc(rt.Arena().FreeHeads(), func(a pmem.Addr) bool { return a != pmem.NilAddr }) {
				t.Error("the fixture has no free block")
			}
		})
	}
}

// TestRecoverCrashDuringRecovery crashes recovery at every one of its
// write-backs and fences, with and without every dirty line evicted first,
// and recovers again: the second recovery must land where an uninterrupted
// one does.
func TestRecoverCrashDuringRecovery(t *testing.T) {
	for _, fx := range recoveryFixtures {
		t.Run(fx.name, func(t *testing.T) {
			img := fx.image(t)
			_, ref, _, events := recordRecovery(t, img, fx.cfg, func(*pmem.Recorder) {})
			want := stateOf(ref)
			points := 0
			for _, e := range events {
				if e.Kind != pmem.EvWriteBack && e.Kind != pmem.EvFence {
					continue
				}
				for _, evict := range []bool{false, true} {
					h, _, _, _ := recordRecovery(t, img, fx.cfg, func(rec *pmem.Recorder) {
						if evict {
							rec.Script([]pmem.Action{{AfterSeq: e.Seq, Line: -1}})
						}
						rec.CrashAllAt(e.Seq)
					})
					if !h.Crashed() {
						t.Fatalf("crash point %d never fired", e.Seq)
					}
					rt, _, err := Recover(h, fx.cfg, 1)
					if err != nil {
						t.Fatalf("crash at %d (evict %v): %v", e.Seq, evict, err)
					}
					got := stateOf(rt)
					if !slices.Equal(got.data, want.data) || !slices.Equal(got.roots, want.roots) ||
						got.used != want.used || !slices.Equal(got.heads, want.heads) {
						t.Fatalf("crash at %d (evict %v): recovered used %d heads %v, uninterrupted %d %v (data or roots may differ too)",
							e.Seq, evict, got.used, got.heads, want.used, want.heads)
					}
					points++
				}
			}
			t.Logf("%d crash points recovered like an uninterrupted recovery", points)
		})
	}
}

// TestMalformedImagesRefusedAlike corrupts a crashed image in four ways and
// requires Recover and the live view to refuse each with the same error,
// without panicking.
func TestMalformedImagesRefusedAlike(t *testing.T) {
	img := syncCrashImage(t)
	a := newArenaView(imageHeap(t, img))
	size := pmem.Addr(len(img))
	// setCell makes v the value of the cell at c whatever its tag says.
	setCell := func(b []byte, c pmem.Addr, v uint64) {
		binary.LittleEndian.PutUint64(b[c+cellRecordOff:], v)
		binary.LittleEndian.PutUint64(b[c+cellBackupOff:], v)
	}
	block := a.dataBase
	cases := []struct {
		name    string
		corrupt func(b []byte)
	}{
		{"layout declares 2^27 cells", func(b []byte) { setCell(b, block+hdrLayoutOff, packLayout(1, 1<<27, 0)) }},
		{"layout declares 40 cells in a 128 B class", func(b []byte) { setCell(b, block+hdrLayoutOff, packLayout(1, 40, 0)) }},
		{"bump cursor past the heap end", func(b []byte) { setCell(b, a.bump.Addr(), uint64(size+4096)) }},
		{"collision-log entry past the heap end", func(b []byte) {
			hdr := a.collHdrAddr()
			copy(b[hdr:], b[0:pmem.WordSize]) // guard = the epoch word: a drain was interrupted
			binary.LittleEndian.PutUint64(b[hdr+8:], 1)
			binary.LittleEndian.PutUint64(b[a.collEntryAddr(0):], uint64(size+pmem.LineSize))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := slices.Clone(img)
			tc.corrupt(bad)
			refusal := func(name string, read func(h *pmem.Heap) error) (err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked: %v", name, r)
					}
				}()
				if err = read(imageHeap(t, bad)); err == nil {
					t.Fatalf("%s accepted the image", name)
				}
				return err
			}
			rerr := refusal("Recover", func(h *pmem.Heap) error {
				_, _, err := Recover(h, Config{Threads: 1}, 1)
				return err
			})
			lerr := refusal("NewLiveImage", func(h *pmem.Heap) error {
				_, err := NewLiveImage(h)
				return err
			})
			if rerr.Error() != lerr.Error() {
				t.Fatalf("Recover refused with %q, NewLiveImage with %q", rerr, lerr)
			}
		})
	}
}
