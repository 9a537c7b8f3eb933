package core

import (
	"testing"

	"github.com/respct/respct/internal/pmem"
)

func newTestRuntime(t *testing.T, threads int, size int64) *Runtime {
	t.Helper()
	if size == 0 {
		size = 8 << 20
	}
	h := pmem.New(pmem.Config{Size: size})
	rt, err := NewRuntime(h, Config{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestNewRuntimeBasics(t *testing.T) {
	rt := newTestRuntime(t, 2, 0)
	if rt.Epoch() != 2 {
		t.Fatalf("fresh runtime epoch = %d, want 2 (epoch 1 is formatting)", rt.Epoch())
	}
	if rt.Threads() != 2 {
		t.Fatalf("Threads = %d", rt.Threads())
	}
	// The epoch counter is persisted at init.
	if got := rt.Heap().LoadPersistent64(rt.Heap().EpochAddr()); got != 2 {
		t.Fatalf("persistent epoch = %d, want 2", got)
	}
}

func TestNewRuntimeValidatesThreadCount(t *testing.T) {
	h := pmem.New(pmem.Config{Size: 8 << 20})
	if _, err := NewRuntime(h, Config{Threads: 0}); err == nil {
		t.Fatal("accepted 0 threads")
	}
	if _, err := NewRuntime(h, Config{Threads: MaxThreads + 1}); err == nil {
		t.Fatal("accepted too many threads")
	}
}

func TestInCLLInitAndRead(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	p := rt.Arena().AllocCells(th, 1)
	v := Cell(p, 0)
	th.Init(v, 77)
	if got := rt.Read(v); got != 77 {
		t.Fatalf("Read = %d", got)
	}
	if got := rt.BackupOf(v); got != 77 {
		t.Fatalf("BackupOf = %d", got)
	}
	if got := rt.EpochOf(v); got != 2 {
		t.Fatalf("EpochOf = %d", got)
	}
}

func TestUpdateFirstTouchLogsOnce(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	p := rt.Arena().AllocCells(th, 1)
	v := Cell(p, 0)
	th.Init(v, 1)

	before := len(th.toFlush)
	th.Update(v, 2)
	th.Update(v, 3)
	th.Update(v, 4)
	// Init already tagged the cell with the current epoch, so none of the
	// updates is a first touch: no extra tracking entries.
	if got := len(th.toFlush) - before; got != 0 {
		t.Fatalf("updates after Init appended %d tracking entries, want 0", got)
	}
	if rt.Read(v) != 4 || rt.BackupOf(v) != 1 {
		t.Fatalf("record/backup = %d/%d, want 4/1", rt.Read(v), rt.BackupOf(v))
	}

	// New epoch: the first update logs the pre-epoch value and tracks once.
	mustCheckpointSolo(t, rt)
	before = len(th.toFlush)
	th.Update(v, 10)
	th.Update(v, 11)
	if got := len(th.toFlush) - before; got != 1 {
		t.Fatalf("first-touch tracking entries = %d, want 1", got)
	}
	if rt.BackupOf(v) != 4 {
		t.Fatalf("backup = %d, want 4 (end of previous epoch)", rt.BackupOf(v))
	}
	if rt.EpochOf(v) != rt.Epoch() {
		t.Fatalf("epoch tag = %d, want %d", rt.EpochOf(v), rt.Epoch())
	}
}

// mustCheckpointSolo runs a checkpoint for runtimes whose workers are not
// running: it parks every worker flag via CheckpointAllow, checkpoints, then
// clears the flags.
func mustCheckpointSolo(t testing.TB, rt *Runtime) CheckpointInfo {
	t.Helper()
	for i := 0; i < rt.Threads(); i++ {
		rt.Thread(i).CheckpointAllow()
	}
	info := rt.Checkpoint()
	for i := 0; i < rt.Threads(); i++ {
		rt.Thread(i).CheckpointPrevent(nil)
	}
	return info
}

func TestCheckpointIncrementsAndPersistsEpoch(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	info := mustCheckpointSolo(t, rt)
	if info.Epoch != 2 {
		t.Fatalf("checkpoint closed epoch %d, want 2", info.Epoch)
	}
	if rt.Epoch() != 3 {
		t.Fatalf("epoch after checkpoint = %d", rt.Epoch())
	}
	if got := rt.Heap().LoadPersistent64(rt.Heap().EpochAddr()); got != 3 {
		t.Fatalf("persistent epoch = %d, want 3", got)
	}
}

func TestCheckpointFlushesTrackedData(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	p := rt.Arena().AllocCells(th, 1)
	v := Cell(p, 0)
	th.Init(v, 123)
	if got := rt.Heap().LoadPersistent64(v.Addr()); got != 0 {
		t.Fatalf("cell persistent before checkpoint = %d", got)
	}
	info := mustCheckpointSolo(t, rt)
	if info.AddrsSeen == 0 || info.LinesWrote == 0 {
		t.Fatalf("checkpoint flushed nothing: %+v", info)
	}
	if got := rt.Heap().LoadPersistent64(v.Addr()); got != 123 {
		t.Fatalf("cell persistent after checkpoint = %d, want 123", got)
	}
}

func TestStoreTrackedPersistsAtCheckpoint(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	p := rt.Arena().AllocRaw(th, 4)
	th.StoreTracked(p, 55)
	th.StoreTracked(p+8, 56)
	mustCheckpointSolo(t, rt)
	if rt.Heap().LoadPersistent64(p) != 55 || rt.Heap().LoadPersistent64(p+8) != 56 {
		t.Fatal("raw tracked stores not persisted")
	}
}

func TestSkipFlushLeavesDataVolatile(t *testing.T) {
	h := pmem.New(pmem.Config{Size: 8 << 20})
	rt, err := NewRuntime(h, Config{Threads: 1, SkipFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.Thread(0)
	p := rt.Arena().AllocCells(th, 1)
	v := Cell(p, 0)
	th.Init(v, 9)
	mustCheckpointSolo(t, rt)
	// Epoch still advanced and persisted...
	if got := h.LoadPersistent64(h.EpochAddr()); got != 3 {
		t.Fatalf("persistent epoch = %d", got)
	}
	// ...but the data flush was skipped.
	if got := h.LoadPersistent64(v.Addr()); got != 0 {
		t.Fatalf("SkipFlush still persisted data: %d", got)
	}
}

func TestTypedViews(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	p := rt.Arena().AllocCells(th, 3)
	vi, vf, va := Cell(p, 0), Cell(p, 1), Cell(p, 2)
	th.InitInt(vi, -42)
	th.InitFloat(vf, 3.25)
	th.InitAddr(va, p)
	if rt.ReadInt(vi) != -42 || th.ReadInt(vi) != -42 {
		t.Fatal("int view")
	}
	th.UpdateInt(vi, -43)
	if rt.ReadInt(vi) != -43 {
		t.Fatal("int update")
	}
	th.UpdateFloat(vf, -0.5)
	if rt.ReadFloat(vf) != -0.5 || th.ReadFloat(vf) != -0.5 {
		t.Fatal("float view")
	}
	th.UpdateAddr(va, p+64)
	if rt.ReadAddr(va) != p+64 || th.ReadAddr(va) != p+64 {
		t.Fatal("addr view")
	}
}

func TestInCLLAtRejectsStraddlingCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for straddling cell")
		}
	}()
	InCLLAt(pmem.Addr(48)) // words 48,56,64 — crosses the line boundary
}

func TestRootInCLLSurviveCrash(t *testing.T) {
	rt := newTestRuntime(t, 1, 0)
	th := rt.Thread(0)
	root := rt.RootInCLL(5)
	th.Init(root, 1000)
	mustCheckpointSolo(t, rt)
	th.Update(root, 2000) // epoch 2, will crash
	rt.Heap().EvictAll()  // force partial state into NVMM
	rt.Heap().Crash()
	rt2, rep, err := Recover(rt.Heap(), Config{Threads: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedEpoch != 3 {
		t.Fatalf("failed epoch = %d, want 3", rep.FailedEpoch)
	}
	if got := rt2.Read(rt2.RootInCLL(5)); got != 1000 {
		t.Fatalf("root after recovery = %d, want 1000 (checkpointed value)", got)
	}
}
