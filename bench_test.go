// Benchmarks at the repository root: the ResPCT API primitives of Table 1,
// ablations of the design choices DESIGN.md calls out, extensions beyond the
// paper, and the store-level costs CI gates. The paper's figures are run by
// `go run ./cmd/respct-bench [-scale paper] all`.
package respct_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/shard"
	"github.com/respct/respct/internal/structures"
)

// driveMapOps runs b.N operations of the given update fraction, split
// across the workers.
func driveMapOps(b *testing.B, m structures.Map, threads int, updateFrac float64, keySpace uint64) {
	b.Helper()
	var wg sync.WaitGroup
	per := b.N / threads
	b.ResetTimer()
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			x := uint64(th)*0x9E3779B97F4A7C15 + 1
			ins := true
			for i := 0; i < per; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				k := x%keySpace + 1
				if float64(x%1000)/1000.0 < updateFrac {
					if ins {
						m.Insert(th, k, k)
					} else {
						m.Remove(th, k)
					}
					ins = !ins
				} else {
					m.Get(th, k)
				}
				m.PerOp(th)
			}
			m.ThreadExit(th)
		}(th)
	}
	wg.Wait()
}

// BenchmarkTable1API measures the primitive costs of the ResPCT API of
// Table 1: update_InCLL first touch vs repeat, plain tracked stores, RP.
func BenchmarkTable1API(b *testing.B) {
	setup := func(b *testing.B) (*core.Runtime, *core.Thread, core.InCLL) {
		rt, err := core.NewRuntime(pmem.New(pmem.NVMMConfig(64<<20)), core.Config{Threads: 1})
		if err != nil {
			b.Fatal(err)
		}
		t := rt.Thread(0)
		p := rt.Arena().AllocCells(t, 1)
		cell := core.Cell(p, 0)
		t.Init(cell, 0)
		return rt, t, cell
	}
	b.Run("UpdateRepeat", func(b *testing.B) {
		_, t, cell := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Update(cell, uint64(i))
		}
	})
	b.Run("UpdateFirstTouch", func(b *testing.B) {
		rt, t, cell := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rt.CheckpointIdle() // force a new epoch so the update is a first touch
			b.StartTimer()
			t.Update(cell, uint64(i))
		}
	})
	b.Run("StoreTracked", func(b *testing.B) {
		rt, t, _ := setup(b)
		p := rt.Arena().AllocRaw(t, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.StoreTracked(p, uint64(i))
		}
	})
	b.Run("RPNoCheckpoint", func(b *testing.B) {
		_, t, _ := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.RP(1)
		}
	})
}

// BenchmarkAblationFlusherPool compares a checkpoint flushed by the engine's
// flusher pool against the same flush on one flusher (the paper's PMThreads
// bottleneck fix applied to ResPCT itself). ns/op is one checkpoint flushing
// 64 Ki random lines of a 512 MiB NVMM-latency heap while the four workers
// sit in CheckpointPrevent, as kvserver's do for the whole pause. "one-list"
// is the parallel engine fed by a single thread's list: the flusher count
// follows the work, not the number of threads that wrote it. CI gates
// parallel ÷ serial at -cpu 2 (see the "Flusher pool gate" step).
func BenchmarkAblationFlusherPool(b *testing.B) {
	const (
		threads  = 4
		nLines   = 64 << 10
		blockLen = 32<<20 - pmem.LineSize // payload bytes of one 32 MiB block
		nBlocks  = 12                     // 384 MiB of the heap
	)
	cases := []struct {
		name    string
		serial  bool
		writers int
	}{{"parallel", false, threads}, {"serial", true, threads}, {"one-list", false, 1}}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rt, err := core.NewRuntime(pmem.New(pmem.NVMMConfig(512<<20)),
				core.Config{Threads: threads, SerialFlush: c.serial})
			if err != nil {
				b.Fatal(err)
			}
			blocks := make([]pmem.Addr, nBlocks)
			for i := range blocks {
				blocks[i] = rt.Arena().AllocRaw(rt.Thread(0), blockLen/pmem.WordSize)
				if blocks[i] == pmem.NilAddr {
					b.Fatal("heap exhausted")
				}
			}
			// Every worker dirties its share of the lines, opens its allow
			// window, and — once the checkpoint has quiesced everyone —
			// walks into CheckpointPrevent and waits the flush out there.
			var ready sync.WaitGroup
			dirty := make([]chan struct{}, threads)
			quiesced := make([]chan struct{}, threads)
			for w := range dirty {
				dirty[w], quiesced[w] = make(chan struct{}), make(chan struct{})
				go func(w int) {
					th := rt.Thread(w)
					x := uint64(w)*0x9E3779B97F4A7C15 + 1
					for range dirty[w] {
						for i := 0; w < c.writers && i < nLines/c.writers; i++ {
							x ^= x << 13
							x ^= x >> 7
							x ^= x << 17
							off := pmem.Addr(x % (blockLen / pmem.LineSize) * pmem.LineSize)
							th.StoreTracked(blocks[x>>32%nBlocks]+off, x)
						}
						th.CheckpointAllow()
						ready.Done()
						<-quiesced[w]
						th.CheckpointPrevent(nil)
					}
				}(w)
			}
			rt.SetQuiescedHook(func(uint64) {
				for _, q := range quiesced {
					q <- struct{}{}
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ready.Add(threads)
				for _, d := range dirty {
					d <- struct{}{}
				}
				ready.Wait()
				b.StartTimer()
				rt.Checkpoint()
			}
			b.StopTimer()
			for _, d := range dirty {
				close(d)
			}
		})
	}
}

// BenchmarkExtensionEADR measures the paper's §6 discussion point as an
// implemented extension: on an eADR platform (caches inside the persistence
// domain) ResPCT runs with SkipFlush — checkpoints only advance the epoch —
// and the write-intensive map gets the flush cost back.
func BenchmarkExtensionEADR(b *testing.B) {
	variants := []struct {
		name string
		heap func() *pmem.Heap
		cfg  core.Config
	}{
		{"NVMM-flushing", func() *pmem.Heap { return pmem.New(pmem.NVMMConfig(256 << 20)) }, core.Config{Threads: 2}},
		{"eADR-noflush", func() *pmem.Heap { return pmem.New(pmem.EADRConfig(256 << 20)) }, core.Config{Threads: 2, SkipFlush: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			rt, err := core.NewRuntime(v.heap(), v.cfg)
			if err != nil {
				b.Fatal(err)
			}
			m, err := structures.NewRespctMap(rt, 0, 4096)
			if err != nil {
				b.Fatal(err)
			}
			rt.CheckpointIdle()
			ck := rt.StartCheckpointer(16 * time.Millisecond)
			driveMapOps(b, m, 2, 0.9, 8192)
			b.StopTimer()
			ck.Stop()
		})
	}
}

// BenchmarkExtensionSkipList measures the persistent sorted map (an
// extension beyond the paper's two structures) against its transient twin:
// mixed insert/remove/get/scan traffic.
func BenchmarkExtensionSkipList(b *testing.B) {
	run := func(b *testing.B, s structures.SortedMap) {
		for k := uint64(1); k <= 4096; k++ {
			s.Insert(0, k*2, k)
		}
		b.ResetTimer()
		x := uint64(1)
		for i := 0; i < b.N; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := x%8192 + 1
			switch x % 10 {
			case 0:
				s.Insert(0, k, k)
			case 1:
				s.Remove(0, k)
			case 2:
				n := 0
				s.Scan(0, k, k+64, func(uint64, uint64) bool { n++; return n < 8 })
			default:
				s.Get(0, k)
			}
			s.PerOp(0)
		}
		b.StopTimer()
		s.ThreadExit(0)
	}
	b.Run("Transient<NVMM>", func(b *testing.B) {
		run(b, structures.NewTransientSkipList(pmem.New(pmem.NVMMConfig(256<<20))))
	})
	b.Run("ResPCT", func(b *testing.B) {
		rt, err := core.NewRuntime(pmem.New(pmem.NVMMConfig(256<<20)), core.Config{Threads: 1})
		if err != nil {
			b.Fatal(err)
		}
		s, err := structures.NewRespctSkipList(rt, 0)
		if err != nil {
			b.Fatal(err)
		}
		rt.CheckpointIdle()
		ck := rt.StartCheckpointer(16 * time.Millisecond)
		run(b, s)
		ck.Stop()
	})
}

// BenchmarkStoreOpsStructures prices what the multi-model surface adds to
// each write of the KV store at the benchmark's size (200 000 records, 16 B
// keys, 100 B values): an overwrite (the ordered index is reached through
// the record's handle), a fresh key (the index is walked and a node linked)
// and a delete (walked and unlinked), each against the plain store. The
// timed loop runs in chunks; between chunks, off the clock, the store is put
// back to its loaded state and checkpointed so freed blocks recycle. CI
// gates overwrite/structures ÷ overwrite/plain (.github/workflows/ci.yml).
func BenchmarkStoreOpsStructures(b *testing.B) {
	const records, chunk = 200_000, 50_000
	keys := make([]string, records+chunk) // the last chunk is never loaded: the fresh keys
	for i := range keys {
		keys[i] = fmt.Sprintf("user%012d", i)
	}
	value := make([]byte, 100)
	loaded := func(i int) string { return keys[i*104729%records] } // distinct for i < records
	for _, op := range []struct {
		name     string
		do, undo func(s *kv.RespctStore, i int)
	}{
		{"overwrite", func(s *kv.RespctStore, i int) { s.Set(0, loaded(i), value) }, nil},
		{"fresh", func(s *kv.RespctStore, i int) { s.Set(0, keys[records+i], value) },
			func(s *kv.RespctStore, i int) { s.Delete(0, keys[records+i]) }},
		{"delete", func(s *kv.RespctStore, i int) { s.Delete(0, loaded(i)) },
			func(s *kv.RespctStore, i int) { s.Set(0, loaded(i), value) }},
	} {
		for _, structs := range []bool{false, true} {
			name := op.name + "/plain"
			if structs {
				name = op.name + "/structures"
			}
			b.Run(name, func(b *testing.B) {
				rt, err := core.NewRuntime(pmem.New(pmem.NVMMConfig(512<<20)), core.Config{Threads: 1})
				if err != nil {
					b.Fatal(err)
				}
				s, err := kv.NewRespctStoreOpts(rt, 0, kv.StoreOptions{Buckets: 262144, Structures: structs})
				if err != nil {
					b.Fatal(err)
				}
				for _, k := range keys[:records] {
					s.Set(0, k, value)
				}
				rt.CheckpointIdle()
				b.ReportAllocs()
				b.ResetTimer()
				for done := 0; done < b.N; done += chunk {
					n := min(chunk, b.N-done)
					for i := 0; i < n; i++ {
						op.do(s, i)
						s.PerOp(0)
					}
					b.StopTimer()
					for i := 0; op.undo != nil && i < n; i++ {
						op.undo(s, i)
					}
					rt.CheckpointIdle()
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkStoreScan prices the scan read path at the benchmark's size
// (200 000 records, 16 B keys, 100 B values): 48-entry scans from spread
// start keys into one reused kv.Entries, through the gated store of one heap
// and through the pool adapter at one shard (a pass-through) and four (each
// shard scans into the thread's scratch run, the runs merge into the
// caller's buffer). ReportAllocs shows the read path's contract: 0 allocs/op
// once the buffers are warm (TestScanIntoAllocFree gates it).
func BenchmarkStoreScan(b *testing.B) {
	const records = 200_000
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%012d", i)
	}
	value := make([]byte, 100)
	run := func(b *testing.B, so kv.StructOps) {
		var dst kv.Entries
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			so.ScanInto(0, keys[i*104729%(records-48)], "", 48, &dst)
		}
		b.StopTimer()
		if dst.Len() != 48 {
			b.Fatalf("scan returned %d entries, want 48", dst.Len())
		}
	}
	b.Run("GatedStore", func(b *testing.B) {
		rt, err := core.NewRuntime(pmem.New(pmem.NVMMConfig(512<<20)), core.Config{Threads: 1})
		if err != nil {
			b.Fatal(err)
		}
		s, err := kv.NewRespctStoreOpts(rt, 0, kv.StoreOptions{Buckets: 262144, Structures: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			s.Set(0, k, value)
		}
		rt.CheckpointIdle()
		run(b, kv.Gate(s))
	})
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shard.Store/%d", shards), func(b *testing.B) {
			p, err := shard.NewPool(shard.Config{Shards: shards, Workers: 1, Buckets: 262144 / shards,
				HeapBytes: 512 << 20 / int64(shards), Structures: true})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			st := p.Store()
			for _, k := range keys {
				st.Set(0, k, value)
			}
			p.CheckpointAll()
			run(b, st)
		})
	}
}
