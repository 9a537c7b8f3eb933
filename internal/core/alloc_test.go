package core

import (
	"fmt"
	"testing"

	"github.com/respct/respct/internal/pmem"
)

// Steady-state allocation gates for the tracking-layer hot path. After the
// first registration of an epoch has grown toFlush, re-stores and repeat
// updates must be allocation-free in both checkpoint modes: one stray
// allocation per op at KV rates is a GC storm, and the figStores acceptance
// row gates on a hard zero.

func allocModes(t *testing.T, f func(t *testing.T, rt *Runtime)) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			h := pmem.New(pmem.Config{Size: 8 << 20})
			rt, err := NewRuntime(h, Config{Threads: 1, AsyncFlush: async})
			if err != nil {
				t.Fatal(err)
			}
			f(t, rt)
		})
	}
}

func TestStoreTrackedAllocFree(t *testing.T) {
	allocModes(t, func(t *testing.T, rt *Runtime) {
		th := rt.Thread(0)
		const words = 64
		p := rt.Arena().AllocRaw(th, words)
		loop := func() {
			for i := 0; i < words; i++ {
				th.StoreTracked(p+pmem.Addr(i)*8, uint64(i))
			}
		}
		loop() // register the lines; growth lands here, not in steady state
		if got := testing.AllocsPerRun(100, loop); got != 0 {
			t.Fatalf("StoreTracked steady state allocates %v per run, want 0", got)
		}
	})
}

func TestAddModifiedAllocFree(t *testing.T) {
	allocModes(t, func(t *testing.T, rt *Runtime) {
		th := rt.Thread(0)
		const words = 64
		p := rt.Arena().AllocRaw(th, words)
		loop := func() {
			for i := 0; i < words; i++ {
				th.AddModified(p + pmem.Addr(i)*8)
			}
		}
		loop()
		if got := testing.AllocsPerRun(100, loop); got != 0 {
			t.Fatalf("AddModified steady state allocates %v per run, want 0", got)
		}
	})
}

func TestUpdateAllocFree(t *testing.T) {
	allocModes(t, func(t *testing.T, rt *Runtime) {
		th := rt.Thread(0)
		v := Cell(rt.Arena().AllocCells(th, 1), 0)
		th.Init(v, 0)
		th.Update(v, 1) // first update of the epoch takes the backup
		n := uint64(2)
		if got := testing.AllocsPerRun(100, func() {
			th.Update(v, n)
			n++
		}); got != 0 {
			t.Fatalf("Update steady state allocates %v per run, want 0", got)
		}
	})
}

// TestSerialCheckpointAllocFree: once its scratch has grown, a checkpoint on
// one flusher — the engine's inline path, which SerialFlush forces and small
// checkpoints take anyway — allocates nothing, however many chunks it sorts.
func TestSerialCheckpointAllocFree(t *testing.T) {
	h := pmem.New(pmem.Config{Size: 32 << 20})
	rt, err := NewRuntime(h, Config{Threads: 1, SerialFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.Thread(0)
	const lines = 3 * chunkAddrs
	p := rt.Arena().AllocRaw(th, lines*pmem.LineSize/pmem.WordSize)
	epoch := func() {
		for i := 0; i < lines; i++ {
			th.StoreTracked(p+pmem.Addr(i*pmem.LineSize), uint64(i))
		}
		th.CheckpointAllow()
		rt.Checkpoint()
		th.CheckpointPrevent(nil)
	}
	epoch()
	if got := testing.AllocsPerRun(10, epoch); got != 0 {
		t.Fatalf("a steady-state serial checkpoint allocates %v times, want 0", got)
	}
}
