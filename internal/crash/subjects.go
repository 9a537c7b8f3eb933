package crash

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/frame"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/shard"
	"github.com/respct/respct/internal/structures"
)

// Env is how a one-heap subject is built and recovered.
type Env struct {
	Heap     pmem.Config // the fresh heap
	Core     core.Config // its runtime
	Recovery int         // core.Recover block-scan parallelism
}

// single is what every one-heap subject shares: its runtime and how to
// recover it.
type single struct {
	RT  *core.Runtime
	env Env
}

func newSingle(env Env) (single, error) {
	rt, err := core.NewRuntime(pmem.New(env.Heap), env.Core)
	return single{RT: rt, env: env}, err
}

// Runtimes implements Subject.
func (s *single) Runtimes() []*core.Runtime { return []*core.Runtime{s.RT} }

// Durable implements Subject.
func (s *single) Durable() {
	s.RT.CheckpointIdle()
	s.RT.WaitDrain()
}

// recoverHeap recovers h (unsanitized) and reads the subject back through
// open, which reattaches it to the recovered runtime.
func (s *single) recoverHeap(h *pmem.Heap, open func(*core.Runtime) (State, error)) ([]Recovered, error) {
	cfg := s.env.Core
	cfg.Sanitize = false
	rt, rep, err := core.Recover(h, cfg, s.env.Recovery)
	if err != nil {
		return nil, err
	}
	st, err := open(rt)
	if err != nil {
		return nil, err
	}
	return []Recovered{{RecoveryReport: *rep, State: st}}, nil
}

// Map is a structures.RespctMap under root slot 0.
type Map struct {
	single
	M *structures.RespctMap // the map
}

// NewMap builds a map with the given bucket count on a fresh heap.
func NewMap(env Env, buckets int) (*Map, error) {
	s, err := newSingle(env)
	if err != nil {
		return nil, err
	}
	m, err := structures.NewRespctMap(s.RT, 0, buckets)
	return &Map{s, m}, err
}

func mapState(m *structures.RespctMap) State {
	snap := m.Snapshot()
	st := make(State, len(snap))
	for k, v := range snap {
		st[strconv.FormatUint(k, 10)] = strconv.FormatUint(v, 10)
	}
	return st
}

// State implements Subject.
func (s *Map) State(int) State { return mapState(s.M) }

// Recover implements Subject.
func (s *Map) Recover() ([]Recovered, error) {
	return s.recoverHeap(s.RT.Heap(), func(rt *core.Runtime) (State, error) {
		m, err := structures.OpenRespctMap(rt, 0)
		if err != nil {
			return nil, err
		}
		return mapState(m), nil
	})
}

// Queue is a structures.RespctQueue under root slot 0; its state maps each
// position to its element, so order is compared too.
type Queue struct {
	single
	Q *structures.RespctQueue // the queue
}

// NewQueue builds an empty queue on a fresh heap.
func NewQueue(env Env) (*Queue, error) {
	s, err := newSingle(env)
	if err != nil {
		return nil, err
	}
	q, err := structures.NewRespctQueue(s.RT, 0)
	return &Queue{s, q}, err
}

func queueState(q *structures.RespctQueue) State {
	st := State{}
	for i, v := range q.Snapshot() {
		st[strconv.Itoa(i)] = strconv.FormatUint(v, 10)
	}
	return st
}

// State implements Subject.
func (s *Queue) State(int) State { return queueState(s.Q) }

// Recover implements Subject.
func (s *Queue) Recover() ([]Recovered, error) {
	return s.recoverHeap(s.RT.Heap(), func(rt *core.Runtime) (State, error) {
		q, err := structures.OpenRespctQueue(rt, 0)
		if err != nil {
			return nil, err
		}
		return queueState(q), nil
	})
}

// SkipList is a structures.RespctSkipList under root slot 0. Recovery also
// checks that its keys come back in strictly ascending order.
type SkipList struct {
	single
	L *structures.RespctSkipList // the skiplist
}

// NewSkipList builds an empty skiplist on a fresh heap.
func NewSkipList(env Env) (*SkipList, error) {
	s, err := newSingle(env)
	if err != nil {
		return nil, err
	}
	l, err := structures.NewRespctSkipList(s.RT, 0)
	return &SkipList{s, l}, err
}

func skipState(l *structures.RespctSkipList) (State, error) {
	keys, vals := l.Snapshot()
	st := make(State, len(keys))
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			return nil, fmt.Errorf("skiplist entry %d: key %d after %d", i, k, keys[i-1])
		}
		st[strconv.FormatUint(k, 10)] = strconv.FormatUint(vals[i], 10)
	}
	return st, nil
}

// State implements Subject.
func (s *SkipList) State(int) State {
	st, _ := skipState(s.L)
	return st
}

// Recover implements Subject.
func (s *SkipList) Recover() ([]Recovered, error) {
	return s.recoverHeap(s.RT.Heap(), func(rt *core.Runtime) (State, error) {
		l, err := structures.OpenRespctSkipList(rt, 0)
		if err != nil {
			return nil, err
		}
		return skipState(l)
	})
}

// Log is a structures.RespctLog under root slot 0; its state maps each
// record's index to its payload, so every surviving record is compared byte
// for byte. Recovery also checks that iteration visits exactly Len records.
type Log struct {
	single
	L *structures.RespctLog // the log
}

// NewLog builds an empty log on a fresh heap.
func NewLog(env Env) (*Log, error) {
	s, err := newSingle(env)
	if err != nil {
		return nil, err
	}
	l, err := structures.NewRespctLog(s.RT, 0)
	return &Log{s, l}, err
}

func logState(l *structures.RespctLog) (State, error) {
	st := State{}
	l.ForEach(func(i uint64, rec []byte) bool {
		st[strconv.FormatUint(i, 10)] = string(rec)
		return true
	})
	if n := l.Len(); uint64(len(st)) != n {
		return nil, fmt.Errorf("log iterated %d records, Len reports %d", len(st), n)
	}
	return st, nil
}

// State implements Subject.
func (s *Log) State(int) State {
	st, _ := logState(s.L)
	return st
}

// Recover implements Subject.
func (s *Log) Recover() ([]Recovered, error) {
	return s.recoverHeap(s.RT.Heap(), func(rt *core.Runtime) (State, error) {
		l, err := structures.OpenRespctLog(rt, 0)
		if err != nil {
			return nil, err
		}
		return logState(l)
	})
}

// KV is a kv.RespctStore under root slot 0, reachable bare (St, for drivers
// that hold their own prevent window) and gated (Gated, as a server sees it).
// In structures mode it reads Clock, a driver-owned millisecond clock that
// starts at 1000, and recovery also checks that its two indexes agree.
type KV struct {
	single
	St         *kv.RespctStore // the bare store
	Gated      *kv.GatedStore  // St behind per-operation checkpoint windows
	Clock      atomic.Uint64   // structures-mode milliseconds
	structures bool
}

// NewKV builds an empty store on a fresh heap; opts.Clock is ignored.
func NewKV(env Env, opts kv.StoreOptions) (*KV, error) {
	sg, err := newSingle(env)
	if err != nil {
		return nil, err
	}
	s := &KV{single: sg, structures: opts.Structures}
	s.Clock.Store(1000)
	opts.Clock = s.Clock.Load
	if s.St, err = kv.NewRespctStoreOpts(s.RT, 0, opts); err != nil {
		return nil, err
	}
	s.Gated = kv.Gate(s.St)
	return s, nil
}

// State implements Subject.
func (s *KV) State(int) State { return s.St.SnapshotLogical() }

// Recover implements Subject.
func (s *KV) Recover() ([]Recovered, error) { return s.recoverHeap(s.RT.Heap(), s.open) }

func (s *KV) open(rt *core.Runtime) (State, error) {
	st, err := kv.OpenRespctStoreOpts(rt, 0, kv.StoreOptions{Structures: s.structures, Clock: s.Clock.Load})
	if err != nil {
		return nil, err
	}
	// The logical state digests the ordered index by key only; the pointers
	// between the two indexes are checked here.
	if s.structures {
		if err := st.CheckIndexes(); err != nil {
			return nil, err
		}
	}
	return st.SnapshotLogical(), nil
}

// FramedKV is a KV store whose durability lives in a frame-snapshot chain
// (internal/frame) on an in-memory file system that a driver can kill
// mid-write. It recovers like a reboot onto the snapshot store: the heap is
// restored from the latest certified chain and the crashed heap is never
// touched.
type FramedKV struct {
	*KV
	FS     *frame.CrashFS // the frame store's file system, armable to die mid-write
	Frames *frame.Store   // the snapshot chain recovery restores from
}

// NewFramedKV builds a plain store and an empty frame store.
func NewFramedKV(env Env, buckets int, p frame.Params) (*FramedKV, error) {
	s, err := NewKV(env, kv.StoreOptions{Buckets: buckets})
	if err != nil {
		return nil, err
	}
	fs := frame.NewCrashFS(frame.NewMemFS(), 1<<62)
	frames, err := frame.NewStore(fs, p, nil)
	return &FramedKV{s, fs, frames}, err
}

// Recover implements Subject.
func (s *FramedKV) Recover() ([]Recovered, error) {
	var sink frame.HeapSink
	if _, err := s.Frames.Restore(&sink, 1); err != nil {
		return nil, err
	}
	h, err := sink.Heap()
	if err != nil {
		return nil, err
	}
	return s.recoverHeap(h, s.open)
}

// Pool is a shard.Pool: one heap and runtime per shard. In structures mode
// it reads Clock, a driver-owned millisecond clock that starts at 1000.
// Recovery also checks that every key recovered on a shard routes to it, and
// in structures mode that each shard's two indexes agree.
type Pool struct {
	P     *shard.Pool   // the pool
	Store *shard.Store  // P's routing store
	Clock atomic.Uint64 // structures-mode milliseconds
}

// NewPool builds the pool; cfg.Clock is ignored. Its checkpoint schedule
// starts in Durable.
func NewPool(cfg shard.Config) (*Pool, error) {
	s := &Pool{}
	s.Clock.Store(1000)
	cfg.Clock = s.Clock.Load
	var err error
	if s.P, err = shard.NewPool(cfg); err != nil {
		return nil, err
	}
	s.Store = s.P.Store()
	return s, nil
}

// Runtimes implements Subject.
func (s *Pool) Runtimes() []*core.Runtime {
	rts := make([]*core.Runtime, s.P.NumShards())
	for i := range rts {
		rts[i] = s.P.Shard(i).RT
	}
	return rts
}

// State implements Subject.
func (s *Pool) State(i int) State { return s.P.Shard(i).KV.SnapshotLogical() }

// Durable implements Subject.
func (s *Pool) Durable() {
	s.P.CheckpointAll()
	s.P.Start()
}

// Recover implements Subject: it stops the crashed pool's schedule and
// recovers every shard in parallel into a pool with none.
func (s *Pool) Recover() ([]Recovered, error) {
	s.P.Close()
	heaps := make([]*pmem.Heap, s.P.NumShards())
	for i := range heaps {
		heaps[i] = s.P.Shard(i).Heap
	}
	cfg := s.P.Config()
	cfg.Interval, cfg.Sanitize = 0, false
	p2, rep, err := shard.Recover(cfg, heaps)
	if err != nil {
		return nil, err
	}
	defer p2.Close()
	out := make([]Recovered, len(heaps))
	for i := range out {
		sh := p2.Shard(i)
		if cfg.Structures {
			if err := sh.KV.CheckIndexes(); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
		st := State(sh.KV.SnapshotLogical())
		for k := range st {
			if strings.HasPrefix(k, "\x00") {
				continue // the ordered-index, queue and log digests
			}
			if home := p2.ShardFor(k); home != i {
				return nil, fmt.Errorf("key %q recovered on shard %d but routes to %d", k, i, home)
			}
		}
		out[i] = Recovered{RecoveryReport: rep.PerShard[i], State: st}
	}
	return out, nil
}
