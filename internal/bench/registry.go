package bench

import (
	"fmt"
	"time"

	"github.com/respct/respct/internal/baselines/cow"
	"github.com/respct/respct/internal/baselines/dali"
	"github.com/respct/respct/internal/baselines/friedman"
	"github.com/respct/respct/internal/baselines/inclltm"
	"github.com/respct/respct/internal/baselines/redolog"
	"github.com/respct/respct/internal/baselines/shadow"
	"github.com/respct/respct/internal/baselines/soft"
	"github.com/respct/respct/internal/baselines/undolog"
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

// respctMapVariant builds the ResPCT map with optional algorithm switches
// (the Fig. 10 decomposition).
func respctMapVariant(p Params, cfg core.Config, checkpoint bool) (structures.Map, func()) {
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
	var ck *core.Checkpointer
	closeFn := func() {
		if ck != nil {
			ck.Stop()
		}
	}
	prefillAnd := func() {
		PrefillMap(m, MapWorkload{KeySpace: p.KeySpace, Prefill: p.Prefill}, p.Seed)
		// Make the prefill durable, then start the periodic checkpointer.
		for i := 0; i < rt.Threads(); i++ {
			rt.Thread(i).CheckpointAllow()
		}
		rt.Checkpoint()
		for i := 0; i < rt.Threads(); i++ {
			rt.Thread(i).CheckpointPrevent(nil)
		}
		if checkpoint {
			ck = rt.StartCheckpointer(p.Interval)
		}
	}
	prefillAnd()
	return prefilled{Map: m}, closeFn
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
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			m := cow.NewMap(h, p.Buckets, p.Interval)
			return m, m.Close
		}},
		{Name: "PMThreads*", Consistency: "buffered", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(2 * mapHeapSize(p))) // two twins
			words := int(p.KeySpace)*8 + p.Buckets + 4096
			sh := shadow.NewHeap(h, words, p.Threads, true)
			m := shadow.NewMap(sh, p.Buckets, p.Interval)
			return m, m.Close
		}},
		{Name: "Clobber-NVM*", Consistency: "durable", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			return undolog.NewMap(h, p.Buckets, p.Threads, undolog.ClobberWAR), func() {}
		}},
		{Name: "Trinity*", Consistency: "durable", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			return inclltm.NewMap(h, p.Buckets, p.Threads), func() {}
		}},
		{Name: "SOFT*", Consistency: "durable", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			return soft.NewMap(h, p.Buckets, p.Threads), func() {}
		}},
		{Name: "Dali*", Consistency: "buffered", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			m := dali.NewMap(h, p.Buckets, p.Threads, p.Interval)
			return m, m.Close
		}},
		{Name: "UndoLog", Consistency: "durable", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			return undolog.NewMap(h, p.Buckets, p.Threads, undolog.Full), func() {}
		}},
		{Name: "RedoLog", Consistency: "durable", New: func(p Params) (structures.Map, func()) {
			h := pmem.New(pmem.NVMMConfig(mapHeapSize(p)))
			return redolog.NewMap(h, p.Buckets, p.Threads), func() {}
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
			h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
			rt, err := core.NewRuntime(h, core.Config{Threads: p.Threads})
			if err != nil {
				panic(err)
			}
			q, err := structures.NewRespctQueue(rt, 0)
			if err != nil {
				panic(err)
			}
			rt.CheckpointIdle()
			ck := rt.StartCheckpointer(p.Interval)
			return q, ck.Stop
		}},
		{Name: "Montage*", Consistency: "buffered", New: func(p Params) (structures.Queue, func()) {
			h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
			q := cow.NewQueue(h, p.Interval)
			return q, q.Close
		}},
		{Name: "PMThreads*", Consistency: "buffered", New: func(p Params) (structures.Queue, func()) {
			h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
			sh := shadow.NewHeap(h, 1<<22, p.Threads, true)
			q := shadow.NewQueue(sh, p.Interval)
			return q, q.Close
		}},
		{Name: "Clobber-NVM*", Consistency: "durable", New: func(p Params) (structures.Queue, func()) {
			h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
			return undolog.NewQueue(h, p.Threads, undolog.ClobberWAR), func() {}
		}},
		{Name: "Quadra*", Consistency: "durable", New: func(p Params) (structures.Queue, func()) {
			h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
			return inclltm.NewQueue(h, p.Threads), func() {}
		}},
		{Name: "FriedmanQueue*", Consistency: "durable", New: func(p Params) (structures.Queue, func()) {
			h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
			return friedman.NewQueue(h, p.Threads, 0), func() {}
		}},
		{Name: "UndoLog", Consistency: "durable", New: func(p Params) (structures.Queue, func()) {
			h := pmem.New(pmem.NVMMConfig(queueHeapSize(p)))
			return undolog.NewQueue(h, p.Threads, undolog.Full), func() {}
		}},
	}
}

// kvVariant is a constructible kv.Store implementation (the Fig. 14 and
// figShards registries).
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

// shardKVConfig splits one KVScale across n shards: the total bucket count
// and heap budget stay fixed so the comparison against a single shard is
// iso-resource, only the partitioning varies.
func shardKVConfig(s KVScale, n int, sync bool) shard.Config {
	buckets := s.Buckets / n
	if buckets < 1<<8 {
		buckets = 1 << 8
	}
	return shard.Config{
		Shards:    n,
		Workers:   s.Workers,
		Buckets:   buckets,
		HeapBytes: s.HeapBytes / int64(n),
		Interval:  s.Interval,
		Sync:      sync,
	}
}

// kvShardVariant builds a sharded ResPCT store with staggered checkpoints.
// The pool's checkpoint driver is started immediately; figShards builds its
// pools by hand instead so it can load before the first checkpoint.
func kvShardVariant(n int) kvVariant {
	return kvVariant{
		name: fmt.Sprintf("ResPCT-shard%d", n),
		build: func(s KVScale) (kv.Store, func()) {
			p, err := shard.NewPool(shardKVConfig(s, n, false))
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
