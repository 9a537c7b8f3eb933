package bench

import (
	"fmt"
	"time"

	"github.com/respct/respct/internal/baselines/cow"
	"github.com/respct/respct/internal/baselines/dali"
	"github.com/respct/respct/internal/baselines/durable"
	"github.com/respct/respct/internal/baselines/friedman"
	"github.com/respct/respct/internal/baselines/shadow"
	"github.com/respct/respct/internal/baselines/soft"
	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/shard"
	"github.com/respct/respct/internal/structures"
)

// Params fixes one benchmark configuration.
type Params struct {
	Buckets  int
	KeySpace uint64
	Prefill  int
	Threads  int
	Interval time.Duration // checkpoint period for periodic systems
	Seed     int64
}

// MapSystem is a constructible map implementation.
type MapSystem struct {
	Name        string
	Consistency string // "transient", "buffered", "durable"
	New         func(p Params) (structures.Map, func())
}

// QueueSystem is a constructible queue implementation.
type QueueSystem struct {
	Name        string
	Consistency string
	New         func(p Params) (structures.Queue, func())
}

func mapHeapSize(p Params) int64 {
	return int64(p.KeySpace)*320 + int64(p.Buckets)*48 + (128 << 20)
}

func queueHeapSize(Params) int64 { return 512 << 20 }

// respctMap builds the ResPCT map with optional algorithm switches (the
// Fig. 10 decomposition), prefilled and with the prefill made durable, so a
// checkpointer started on the returned runtime has nothing left to flush.
func respctMap(p Params, cfg core.Config) (structures.Map, *core.Runtime) {
	h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
	cfg.Threads = p.Threads
	rt, err := core.NewRuntime(h, cfg)
	if err != nil {
		panic(err)
	}
	m, err := structures.NewRespctMap(rt, 0, p.Buckets)
	if err != nil {
		panic(err)
	}
	PrefillMap(m, MapWorkload{KeySpace: p.KeySpace, Prefill: p.Prefill}, p.Seed)
	rt.CheckpointIdle()
	return prefilled{Map: m}, rt
}

// respctMapVariant is respctMap as a map system: with checkpoint, a periodic
// checkpointer runs until the returned close function.
func respctMapVariant(p Params, cfg core.Config, checkpoint bool) (structures.Map, func()) {
	m, rt := respctMap(p, cfg)
	if !checkpoint {
		return m, func() {}
	}
	return m, rt.StartCheckpointer(p.Interval).Stop
}

// every drives a comparator's checkpoint with the driver ResPCT runs under
// (core.Checkpointer: interval, checkpoint, re-arm) until the returned
// function is called, which returns once the last checkpoint has: the
// comparators leave driving their checkpoints to their caller.
func every(interval time.Duration, checkpoint func()) (stop func()) {
	return core.StartCheckpointer(interval, func() core.CheckpointInfo {
		checkpoint()
		return core.CheckpointInfo{}
	}).Stop
}

// prefilled marks a map as already prefilled so RunnerMap skips it.
type prefilled struct{ structures.Map }

// Prefilled reports whether the factory already prefilled the structure.
func Prefilled(m any) bool {
	_, ok := m.(prefilled)
	return ok
}

// MapSystems returns the registry of map implementations in the paper's
// Fig. 8 (plus the redo-log extra and the ResPCT decomposition variants,
// which Fig. 10 uses).
func MapSystems() []MapSystem {
	return []MapSystem{
		{Name: "Transient<DRAM>", Consistency: "transient", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.DRAMConfig(mapHeapSize(p)))
			return structures.NewTransientMap(h, p.Buckets), func() {}
		}},
		{Name: "Transient<NVMM>", Consistency: "transient", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			return structures.NewTransientMap(h, p.Buckets), func() {}
		}},
		{Name: "ResPCT", Consistency: "buffered", New: func(p Params) (structures.Map, func()) {
			return respctMapVariant(p, core.Config{}, true)
		}},
		{Name: "Montage*", Consistency: "buffered", New: func(p Params) (structures.Map, func()) {
			m := cow.NewMap(pmem.New(pmem.NVMMConfig(mapHeapSize(p))), p.Buckets)
			return m, every(p.Interval, m.Checkpoint)
		}},
		{Name: "PMThreads*", Consistency: "buffered", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(2 * mapHeapSize(p))) // two twins
			words := int(p.KeySpace)*8 + p.Buckets + 4096
			sh := shadow.NewHeap(h, words)
			return shadow.NewMap(sh, p.Buckets), every(p.Interval, sh.Checkpoint)
		}},
		{Name: "Clobber-NVM*", Consistency: "durable", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			return durable.NewMap(h, p.Buckets, p.Threads, durable.Clobber), func() {}
		}},
		{Name: "Trinity*", Consistency: "durable", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			return durable.NewMap(h, p.Buckets, p.Threads, durable.InCLL), func() {}
		}},
		{Name: "SOFT*", Consistency: "durable", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			return soft.NewMap(h, p.Buckets, p.Threads), func() {}
		}},
		{Name: "Dali*", Consistency: "buffered", New: func(p Params) (structures.Map, func()) {
			m := dali.NewMap(pmem.New(pmem.NVMMConfig(mapHeapSize(p))), p.Buckets, p.Threads)
			return m, every(p.Interval, m.Checkpoint)
		}},
		{Name: "UndoLog", Consistency: "durable", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			return durable.NewMap(h, p.Buckets, p.Threads, durable.UndoLog), func() {}
		}},
		{Name: "RedoLog", Consistency: "durable", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			return durable.NewMap(h, p.Buckets, p.Threads, durable.RedoLog), func() {}
		}},
	}
}

// MapSystem0 returns the named map system or panics.
func MapSystem0(name string) MapSystem {
	for _, s := range MapSystems() {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("bench: unknown map system %q", name))
}

// respctQueueVariant builds the ResPCT queue with algorithm switches.
func respctQueueVariant(p Params, cfg core.Config, checkpoint bool) (structures.Queue, func()) {
	h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
	cfg.Threads = p.Threads
	rt, err := core.NewRuntime(h, cfg)
	if err != nil {
		panic(err)
	}
	q, err := structures.NewRespctQueue(rt, 0)
	if err != nil {
		panic(err)
	}
	rt.CheckpointIdle()
	if checkpoint {
		ck := rt.StartCheckpointer(p.Interval)
		return q, ck.Stop
	}
	return q, func() {}
}

// RespctQueueVariants returns the Fig. 10 queue decomposition.
func RespctQueueVariants() []QueueSystem {
	return []QueueSystem{
		{Name: "ResPCT", Consistency: "buffered", New: func(p Params) (structures.Queue, func()) {
			return respctQueueVariant(p, core.Config{}, true)
		}},
		{Name: "ResPCT-InCLL", Consistency: "none", New: func(p Params) (structures.Queue, func()) {
			return respctQueueVariant(p, core.Config{}, false)
		}},
		{Name: "ResPCT-noFlush", Consistency: "none", New: func(p Params) (structures.Queue, func()) {
			return respctQueueVariant(p, core.Config{SkipFlush: true}, true)
		}},
	}
}

// RespctMapVariants returns the Fig. 10 decomposition: the full algorithm,
// InCLL+tracking only (no checkpoints), and everything except the data
// flush.
func RespctMapVariants() []MapSystem {
	return []MapSystem{
		{Name: "ResPCT", Consistency: "buffered", New: func(p Params) (structures.Map, func()) {
			return respctMapVariant(p, core.Config{}, true)
		}},
		{Name: "ResPCT-InCLL", Consistency: "none", New: func(p Params) (structures.Map, func()) {
			return respctMapVariant(p, core.Config{}, false)
		}},
		{Name: "ResPCT-noFlush", Consistency: "none", New: func(p Params) (structures.Map, func()) {
			return respctMapVariant(p, core.Config{SkipFlush: true}, true)
		}},
	}
}

// QueueSystems returns the registry of queue implementations in the paper's
// Fig. 9.
func QueueSystems() []QueueSystem {
	return []QueueSystem{
		{Name: "Transient<DRAM>", Consistency: "transient", New: func(p Params) (structures.Queue, func()) {
			h := pmem.New(pmem.DRAMConfig(queueHeapSize(p)))
			return structures.NewTransientQueue(h), func() {}
		}},
		{Name: "Transient<NVMM>", Consistency: "transient", New: func(p Params) (structures.Queue, func()) {
			h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
			return structures.NewTransientQueue(h), func() {}
		}},
		{Name: "ResPCT", Consistency: "buffered", New: func(p Params) (structures.Queue, func()) {
			return respctQueueVariant(p, core.Config{}, true)
		}},
		{Name: "Montage*", Consistency: "buffered", New: func(p Params) (structures.Queue, func()) {
			q := cow.NewQueue(pmem.New(pmem.NVMMConfig(queueHeapSize(p))))
			return q, every(p.Interval, q.Checkpoint)
		}},
		{Name: "PMThreads*", Consistency: "buffered", New: func(p Params) (structures.Queue, func()) {
			sh := shadow.NewHeap(pmem.New(pmem.NVMMConfig(queueHeapSize(p))), 1<<22)
			return shadow.NewQueue(sh), every(p.Interval, sh.Checkpoint)
		}},
		{Name: "Clobber-NVM*", Consistency: "durable", New: func(p Params) (structures.Queue, func()) {
			h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
			return durable.NewQueue(h, p.Threads, durable.Clobber), func() {}
		}},
		{Name: "Quadra*", Consistency: "durable", New: func(p Params) (structures.Queue, func()) {
			h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
			return durable.NewQueue(h, p.Threads, durable.InCLL), func() {}
		}},
		{Name: "FriedmanQueue*", Consistency: "durable", New: func(p Params) (structures.Queue, func()) {
			h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
			return friedman.NewQueue(h, p.Threads, 0), func() {}
		}},
		{Name: "UndoLog", Consistency: "durable", New: func(p Params) (structures.Queue, func()) {
			h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
			return durable.NewQueue(h, p.Threads, durable.UndoLog), func() {}
		}},
	}
}

// kvVariant is a constructible kv.Store implementation (the Fig. 14
// registry).
type kvVariant struct {
	name  string
	build func(s KVScale) (kv.Store, func())
}

func kvVariants() []kvVariant {
	return []kvVariant{
		{"Transient<DRAM>", func(s KVScale) (kv.Store, func()) {
			h := pmem.New(pmem.DRAMConfig(s.HeapBytes))
			return kv.NewTransientStore(h), func() {}
		}},
		{"Transient<NVMM>", func(s KVScale) (kv.Store, func()) {
			h := pmem.New(pmem.NVMMConfig(s.HeapBytes))
			return kv.NewTransientStore(h), func() {}
		}},
		{"ResPCT", func(s KVScale) (kv.Store, func()) {
			h := pmem.New(pmem.NVMMConfig(s.HeapBytes))
			rt, err := core.NewRuntime(h, core.Config{Threads: s.Workers})
			if err != nil {
				panic(err)
			}
			st, err := kv.NewRespctStore(rt, 0, s.Buckets)
			if err != nil {
				panic(err)
			}
			rt.CheckpointIdle()
			gated := kv.Gate(st)
			ck := rt.StartCheckpointer(s.Interval)
			return gated, ck.Stop
		}},
		kvShardVariant(4),
	}
}

// kvShardVariant builds a sharded ResPCT store with staggered checkpoints.
// The total bucket count and heap budget are those of the unsharded
// variants, so the comparison is iso-resource: only the partitioning varies.
func kvShardVariant(n int) kvVariant {
	return kvVariant{
		name: fmt.Sprintf("ResPCT-shard%d", n),
		build: func(s KVScale) (kv.Store, func()) {
			p, err := shard.NewPool(shard.Config{
				Shards:    n,
				Workers:   s.Workers,
				Buckets:   max(s.Buckets/n, 1<<8),
				HeapBytes: s.HeapBytes / int64(n),
				Interval:  s.Interval,
			})
			if err != nil {
				panic(err)
			}
			p.Start()
			return p.Store(), p.Close
		},
	}
}

// QueueSystem0 returns the named queue system or panics.
func QueueSystem0(name string) QueueSystem {
	for _, s := range QueueSystems() {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("bench: unknown queue system %q", name))
}
