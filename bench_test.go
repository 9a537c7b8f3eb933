// Benchmarks at the repository root: one testing.B entry point per figure
// and table of the paper's evaluation, plus ablations of the design choices
// DESIGN.md calls out. These run CI-sized configurations; the full sweeps
// with paper-sized problems are behind `go run ./cmd/respct-bench -scale
// paper all`.
package respct_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/respct/respct/internal/apps"
	"github.com/respct/respct/internal/bench"
	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

func benchParams(threads int) bench.Params {
	return bench.Params{
		Buckets:  4096,
		KeySpace: 8192,
		Prefill:  4096,
		Threads:  threads,
		Interval: 16 * time.Millisecond,
		Seed:     1,
	}
}

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

// BenchmarkFig8 measures every map system under the paper's three
// update/search mixes (Figure 8), 2 workers.
func BenchmarkFig8(b *testing.B) {
	const threads = 2
	mixes := []struct {
		name string
		frac float64
	}{{"r90", 0.1}, {"r50", 0.5}, {"r10", 0.9}}
	for _, mix := range mixes {
		for _, sys := range bench.MapSystems() {
			b.Run(fmt.Sprintf("%s/%s", mix.name, sys.Name), func(b *testing.B) {
				p := benchParams(threads)
				m, closeFn := sys.New(p)
				if !bench.Prefilled(m) {
					bench.PrefillMap(m, bench.MapWorkload{KeySpace: p.KeySpace, Prefill: p.Prefill}, p.Seed)
				}
				driveMapOps(b, m, threads, mix.frac, p.KeySpace)
				b.StopTimer()
				closeFn()
				m.Close()
			})
		}
	}
}

// BenchmarkFig9 measures every queue system on the 1:1 enqueue/dequeue mix
// (Figure 9), 2 workers.
func BenchmarkFig9(b *testing.B) {
	const threads = 2
	for _, sys := range bench.QueueSystems() {
		b.Run(sys.Name, func(b *testing.B) {
			p := benchParams(threads)
			q, closeFn := sys.New(p)
			bench.PrefillQueue(q, 1000)
			var wg sync.WaitGroup
			per := b.N / threads
			b.ResetTimer()
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if i&1 == 0 {
							q.Enqueue(th, uint64(i)+1)
						} else {
							q.Dequeue(th)
						}
						q.PerOp(th)
					}
					q.ThreadExit(th)
				}(th)
			}
			wg.Wait()
			b.StopTimer()
			closeFn()
			q.Close()
		})
	}
}

// BenchmarkFig10 measures the ResPCT overhead decomposition (Figure 10):
// Transient on DRAM/NVMM, InCLL-only, no-flush, and the full algorithm, on
// the write-intensive mix.
func BenchmarkFig10(b *testing.B) {
	const threads = 2
	systems := []bench.MapSystem{
		bench.MapSystem0("Transient<DRAM>"),
		bench.MapSystem0("Transient<NVMM>"),
	}
	systems = append(systems, bench.RespctMapVariants()...)
	for _, sys := range systems {
		b.Run(sys.Name, func(b *testing.B) {
			p := benchParams(threads)
			m, closeFn := sys.New(p)
			if !bench.Prefilled(m) {
				bench.PrefillMap(m, bench.MapWorkload{KeySpace: p.KeySpace, Prefill: p.Prefill}, p.Seed)
			}
			driveMapOps(b, m, threads, 0.9, p.KeySpace)
			b.StopTimer()
			closeFn()
			m.Close()
		})
	}
}

// BenchmarkFig11 measures ResPCT under different checkpoint periods
// (Figure 11).
func BenchmarkFig11(b *testing.B) {
	const threads = 2
	for _, period := range []time.Duration{2 * time.Millisecond, 8 * time.Millisecond, 32 * time.Millisecond, 64 * time.Millisecond} {
		b.Run(period.String(), func(b *testing.B) {
			p := benchParams(threads)
			p.Interval = period
			sys := bench.MapSystem0("ResPCT")
			m, closeFn := sys.New(p)
			driveMapOps(b, m, threads, 0.9, p.KeySpace)
			b.StopTimer()
			closeFn()
			m.Close()
		})
	}
}

// BenchmarkFig12 measures recovery of a crashed HashMap heap (Figure 12);
// ns/op is the full recovery scan over the reported block count.
func BenchmarkFig12(b *testing.B) {
	for _, buckets := range []int{1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("buckets%d", buckets), func(b *testing.B) {
			keys := uint64(buckets * 2)
			h := pmem.New(pmem.NVMMConfig(int64(keys)*320 + (128 << 20)))
			rt, err := core.NewRuntime(h, core.Config{Threads: 1})
			if err != nil {
				b.Fatal(err)
			}
			m, err := structures.NewRespctMap(rt, 0, buckets)
			if err != nil {
				b.Fatal(err)
			}
			w := bench.MapWorkload{UpdateFrac: 0.9, KeySpace: keys, Prefill: int(keys)}
			bench.PrefillMap(m, w, 1)
			rt.CheckpointIdle()
			h.EvictDirtyFraction(0.5, 5)
			h.Crash()
			h.Reopen()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Recover(h, core.Config{Threads: 1}, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13 measures each compute application, transient vs ResPCT
// (Figure 13); ns/op is one full application run.
func BenchmarkFig13(b *testing.B) {
	const threads = 3
	newRT := func() *core.Runtime {
		rt, err := core.NewRuntime(pmem.New(pmem.NVMMConfig(128<<20)), core.Config{Threads: threads})
		if err != nil {
			b.Fatal(err)
		}
		return rt
	}
	b.Run("MatMul/transient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.MatMulTransient(48, threads, 7)
		}
	})
	b.Run("MatMul/respct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := newRT()
			m, err := apps.NewMatMul(rt, 0, 48, 7)
			if err != nil {
				b.Fatal(err)
			}
			ck := rt.StartCheckpointer(8 * time.Millisecond)
			m.Run()
			ck.Stop()
		}
	})
	b.Run("LR/transient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.LRTransient(100_000, threads, 7)
		}
	})
	b.Run("LR/respct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := newRT()
			l, err := apps.NewLR(rt, 0, 100_000, 1000, 7)
			if err != nil {
				b.Fatal(err)
			}
			ck := rt.StartCheckpointer(8 * time.Millisecond)
			l.Run()
			ck.Stop()
		}
	})
	b.Run("Swaptions/transient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.SwaptionsTransient(8, 2000, threads, 7)
		}
	})
	b.Run("Swaptions/respct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := newRT()
			s, err := apps.NewSwaptions(rt, 0, 8, 2000, 500, 7)
			if err != nil {
				b.Fatal(err)
			}
			ck := rt.StartCheckpointer(8 * time.Millisecond)
			s.Run()
			ck.Stop()
		}
	})
	b.Run("Dedup/transient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.DedupTransient(2000, 500, threads, 7)
		}
	})
	b.Run("Dedup/respct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := newRT()
			d, err := apps.NewDedup(rt, 0, 2000, 500, 500, 7)
			if err != nil {
				b.Fatal(err)
			}
			ck := rt.StartCheckpointer(8 * time.Millisecond)
			d.Run()
			ck.Stop()
		}
	})
}

// BenchmarkFig14 measures the KV store's data path per operation for the
// three variants of Figure 14 (in-process, isolating store cost from TCP).
func BenchmarkFig14(b *testing.B) {
	value := make([]byte, 100)
	run := func(b *testing.B, s kv.Store, close func()) {
		const records = 2048
		for i := 0; i < records; i++ {
			s.Set(0, fmt.Sprintf("user%012d", i), value)
		}
		b.ResetTimer()
		x := uint64(1)
		for i := 0; i < b.N; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			key := fmt.Sprintf("user%012d", x%records)
			if x%10 == 0 {
				s.Set(0, key, value)
			} else {
				s.Get(0, key)
			}
			s.PerOp(0)
		}
		b.StopTimer()
		s.ThreadExit(0)
		close()
	}
	b.Run("Transient<DRAM>", func(b *testing.B) {
		run(b, kv.NewTransientStore(pmem.New(pmem.DRAMConfig(256<<20))), func() {})
	})
	b.Run("Transient<NVMM>", func(b *testing.B) {
		run(b, kv.NewTransientStore(pmem.New(pmem.NVMMConfig(256<<20))), func() {})
	})
	b.Run("ResPCT", func(b *testing.B) {
		rt, err := core.NewRuntime(pmem.New(pmem.NVMMConfig(256<<20)), core.Config{Threads: 1})
		if err != nil {
			b.Fatal(err)
		}
		s, err := kv.NewRespctStore(rt, 0, 4096)
		if err != nil {
			b.Fatal(err)
		}
		rt.CheckpointIdle()
		ck := rt.StartCheckpointer(16 * time.Millisecond)
		run(b, s, ck.Stop)
	})
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

// BenchmarkAblationTracking compares InCLL-based modification tracking with
// naive append-per-update tracking (DESIGN.md ablation; the paper's claim is
// that the epoch tag makes tracking nearly free).
func BenchmarkAblationTracking(b *testing.B) {
	for _, naive := range []bool{false, true} {
		name := "incll-tracking"
		if naive {
			name = "naive-tracking"
		}
		b.Run(name, func(b *testing.B) {
			rt, err := core.NewRuntime(pmem.New(pmem.NVMMConfig(128<<20)),
				core.Config{Threads: 1, DisableTracking: naive})
			if err != nil {
				b.Fatal(err)
			}
			t := rt.Thread(0)
			p := rt.Arena().AllocCells(t, 64)
			cells := make([]core.InCLL, 64)
			for i := range cells {
				cells[i] = core.Cell(p, i)
				t.Init(cells[i], 0)
			}
			ck := rt.StartCheckpointer(8 * time.Millisecond)
			defer ck.Stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Update(cells[i%64], uint64(i))
				t.RP(1)
			}
			b.StopTimer()
			t.CheckpointAllow()
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

// BenchmarkAblationRPBatch reproduces the §5.3 RP-positioning trade-off as a
// benchmark: Linear Regression with per-point vs batched restart points.
func BenchmarkAblationRPBatch(b *testing.B) {
	for _, batch := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt, err := core.NewRuntime(pmem.New(pmem.NVMMConfig(64<<20)), core.Config{Threads: 2})
				if err != nil {
					b.Fatal(err)
				}
				l, err := apps.NewLR(rt, 0, 50_000, batch, 7)
				if err != nil {
					b.Fatal(err)
				}
				ck := rt.StartCheckpointer(8 * time.Millisecond)
				l.Run()
				ck.Stop()
			}
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
