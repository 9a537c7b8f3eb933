package shard

import (
	"strconv"

	"github.com/respct/respct/internal/kv"
)

// Store adapts a Pool to the kv.Store interface, so kv.Server (and any
// other Store consumer) serves a sharded pool unchanged. It only routes:
// every operation is delegated to the gated store of the shard its key (or
// structure name) hashes to.
//
// Checkpoint gating is therefore per operation and per shard (DESIGN.md
// §3f): a worker's allow window is open on every shard while the worker is
// between operations, and closed only on the shard an operation routes to,
// for the duration of that operation — so a shard can checkpoint while
// workers are busy on other shards.
type Store struct {
	p *Pool
}

// Store returns the pool's kv.Store adapter.
func (p *Pool) Store() *Store { return &Store{p: p} }

// Pool returns the underlying pool (for stats and lifecycle).
func (s *Store) Pool() *Pool { return s.p }

// route picks the shard for key and bumps its routed-ops counter when
// telemetry is on (one uncontended atomic add; nil check otherwise).
func (s *Store) route(th int, key string) *kv.GatedStore {
	i := s.p.ShardFor(key)
	if s.p.ops != nil {
		s.p.ops[i].Inc(th)
	}
	return s.p.shards[i].gated
}

// Set implements kv.Store.
func (s *Store) Set(th int, key string, value []byte) { s.route(th, key).Set(th, key, value) }

// Get implements kv.Store.
func (s *Store) Get(th int, key string) ([]byte, bool) { return s.route(th, key).Get(th, key) }

// Delete implements kv.Store.
func (s *Store) Delete(th int, key string) bool { return s.route(th, key).Delete(th, key) }

// PerOp implements kv.Store. Restart points are placed inside every
// operation (while the target shard's prevent window is held), so this is a
// no-op.
func (s *Store) PerOp(int) {}

// ThreadExit implements kv.Store: every shard's allow window for th is
// (re)opened so no shard's checkpointer can stall on an exited worker.
func (s *Store) ThreadExit(th int) {
	for _, sh := range s.p.shards {
		sh.gated.ThreadExit(th)
	}
}

// Structures reports whether the pool's shards carry the multi-model
// surface (kv.Server refuses the structure verbs otherwise).
func (s *Store) Structures() bool { return s.p.cfg.Structures }

// Scan implements kv.StructOps: every shard scans its partition of the key
// space under its own prevent window, then the sorted per-shard runs merge
// to the first limit entries. Each shard's run is individually consistent;
// the fan-out as a whole is not one atomic cut across shards (exactly like
// a MULTI batch, cross-shard reads have no single point in time).
func (s *Store) Scan(th int, from, to string, limit int) []kv.Entry {
	runs := make([][]kv.Entry, len(s.p.shards))
	for i, sh := range s.p.shards {
		runs[i] = sh.gated.Scan(th, from, to, limit)
	}
	return mergeRuns(runs, limit)
}

// mergeRuns merges sorted per-shard scan runs into the first limit entries
// of the global order (limit <= 0 means unbounded).
func mergeRuns(runs [][]kv.Entry, limit int) []kv.Entry {
	var out []kv.Entry
	for limit <= 0 || len(out) < limit {
		best := -1
		for i, r := range runs {
			if len(r) == 0 {
				continue
			}
			if best == -1 || r[0].Key < runs[best][0].Key {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, runs[best][0])
		runs[best] = runs[best][1:]
	}
	return out
}

// QPush implements kv.StructOps, routing the queue by its name.
func (s *Store) QPush(th int, name string, value []byte) error {
	return s.route(th, name).QPush(th, name, value)
}

// QPop implements kv.StructOps.
func (s *Store) QPop(th int, name string) ([]byte, bool, error) {
	return s.route(th, name).QPop(th, name)
}

// LAppend implements kv.StructOps, routing the log by its name.
func (s *Store) LAppend(th int, name string, record []byte) (uint64, error) {
	return s.route(th, name).LAppend(th, name, record)
}

// LRange implements kv.StructOps.
func (s *Store) LRange(th int, name string, from uint64, count uint32) ([][]byte, error) {
	return s.route(th, name).LRange(th, name, from, count)
}

// Expire implements kv.StructOps.
func (s *Store) Expire(th int, key string, ms uint64) bool {
	return s.route(th, key).Expire(th, key, ms)
}

// TTL implements kv.StructOps.
func (s *Store) TTL(th int, key string) (uint64, bool) { return s.route(th, key).TTL(th, key) }

// BatchShard implements kv.Batcher: the shard an atomic batch keyed by key
// must execute on.
func (s *Store) BatchShard(key string) int { return s.p.ShardFor(key) }

// Batch implements kv.Batcher: f runs against shard si's bare store inside
// that shard's single checkpoint-prevent window on th (kv.GatedStore.Batch),
// so the whole batch lands in one epoch. It counts as one routed operation.
func (s *Store) Batch(th, si int, f func(st *kv.RespctStore)) {
	s.p.shards[si].gated.Batch(th, 0, f)
	if s.p.ops != nil {
		s.p.ops[si].Inc(th)
	}
}

// SnapshotLogical merges every shard's logical contents (test/soak helper;
// callers must ensure quiescence). Structure pseudo-keys (the NUL-prefixed
// ordered-index/queue/log entries of kv.RespctStore.SnapshotLogical) are
// namespaced by shard index so shards cannot clobber each other's.
func (s *Store) SnapshotLogical() map[string]string {
	out := make(map[string]string)
	for _, sh := range s.p.shards {
		for k, v := range sh.KV.SnapshotLogical() {
			if len(k) > 0 && k[0] == 0 {
				k = "\x00" + strconv.Itoa(sh.Index) + ":" + k[1:]
			}
			out[k] = v
		}
	}
	return out
}

// interface compliance
var (
	_ kv.Store     = (*Store)(nil)
	_ kv.StructOps = (*Store)(nil)
	_ kv.Batcher   = (*Store)(nil)
)
