package crashexplore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/crash"
	"github.com/respct/respct/internal/frame"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/shard"
	"github.com/respct/respct/internal/wire"
)

// Workload is a named, deterministic crash-test program: a crash.Subject
// built on fresh heaps and a crash.Script driving it. The name fully
// determines both, which is what makes a repro file self-contained.
type Workload struct {
	name  string
	setup func(sanitize bool) (crash.Subject, func() error, error)
}

// row binds a subject builder and a script into a workload.
func row[S crash.Subject](name string, build func(sanitize bool) (S, error), sc crash.Script[S]) *Workload {
	return &Workload{name: name, setup: func(sanitize bool) (crash.Subject, func() error, error) {
		s, err := build(sanitize)
		if err != nil {
			return nil, nil, err
		}
		return s, func() error { return sc.Run(s) }, nil
	}}
}

// Name is the registry key.
func (w *Workload) Name() string { return w.name }

// Setup builds the workload's subject, certifies every checkpoint, makes its
// initial state durable and only then attaches its heaps to rec, in heap
// order — the trace (and therefore the crash-point space) deliberately
// starts after setup, so mid-format crashes are out of scope (see
// docs/FAILURE-MODEL.md). sanitize attaches the runtime persistency
// sanitizer (collect mode) to every runtime the workload builds.
func (w *Workload) Setup(rec *pmem.Recorder, sanitize bool) (*Run, error) {
	s, exec, err := w.setup(sanitize)
	if err != nil {
		return nil, err
	}
	c := crash.Certify(s)
	s.Durable()
	for _, rt := range s.Runtimes() {
		rec.Attach(rt.Heap())
	}
	return &Run{Checker: c, subject: s, exec: exec}, nil
}

// Run is one instantiation of a workload. Check (the crash.Checker's)
// recovers every heap, in attach order, and compares it with what its last
// completed checkpoint certified; recovery parallelism is 1 so replays stay
// deterministic.
type Run struct {
	*crash.Checker
	subject crash.Subject
	exec    func() error
}

// Execute drives the workload to completion from a single goroutine, even if
// the heaps crash mid-run (post-crash volatile execution is harmless:
// write-backs become no-ops).
func (r *Run) Execute() error { return r.exec() }

// SanFindings reports the persistency sanitizer's findings across the run's
// runtimes; nil when the run was not sanitized or stayed clean.
func (r *Run) SanFindings() []string {
	rts := r.subject.Runtimes()
	if len(rts) == 1 {
		return rts[0].SanFindings()
	}
	var out []string
	for i, rt := range rts {
		for _, f := range rt.SanFindings() {
			out = append(out, fmt.Sprintf("shard %d: %s", i, f))
		}
	}
	return out
}

// workloads is the registry. Every entry is deterministic: same name → same
// trace, byte for byte.
var workloads = []*Workload{
	mapRow("map-tiny", false, false, 2, 3, 4, 0),
	mapRow("map-sync", false, false, 4, 12, 16, 0),
	mapRow("map-async", true, false, 3, 10, 12, 4),
	// The seeded known-bad schedule: every checkpoint after setup commits
	// its epoch before flushing (core.SetCommitBeforeFlushFault).
	mapRow("map-sync-badcommit", false, true, 2, 6, 8, 0),
	kvRow("kv-sync", false, 3, 10, 12, 0),
	kvRow("kv-async", true, 3, 8, 10, 3),
	shardRow("shard-2-staggered", 4, 8, 16),
	framesRow("kv-frames", 4, 8, 10, 100),
	batchRow("kv-batch-sync", false, 3, 8, 10),
	batchRow("kv-batch-async", true, 3, 6, 8),
	structRow("kv-scan", "scan", 3, 8, 10),
	structRow("kv-ttl", "ttl", 3, 8, 8),
	structRow("kv-queue", "queue", 3, 6, 8),
	structRow("kv-log", "log", 3, 6, 8),
	structRow("kv-multi", "multi", 3, 6, 8),
}

// Lookup returns the registered workload for name.
func Lookup(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("crashexplore: unknown workload %q (have %v)", name, Names())
}

// Names lists the registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(workloads))
	for _, w := range workloads {
		out = append(out, w.name)
	}
	sort.Strings(out)
	return out
}

// workloadHeapBytes sizes every explorer heap. Small keeps per-crash-point
// cost down (each point re-formats the heap and hashes the whole persistent
// image) but must still fit a 2 MiB structure segment plus node blocks.
const workloadHeapBytes = 8 << 20

// explorerEnv is the deterministic shape of every one-heap workload: one
// worker, serial flushing, serial recovery, no evictor.
func explorerEnv(async, sanitize bool) crash.Env {
	return crash.Env{
		Heap:     pmem.Config{Size: workloadHeapBytes, Chaos: true, Seed: 1},
		Core:     core.Config{Threads: 1, AsyncFlush: async, SerialFlush: true, Sanitize: sanitize},
		Recovery: 1,
	}
}

// mapRow drives a structures.RespctMap; with collide > 0 (async runtimes) it
// issues that many first-updates of the new epoch on keys the draining one
// touched while each drain is parked: they hit collideCell, flush the line
// early and append to the collision log.
func mapRow(name string, async, badCommit bool, batches, ops int, keys int64, collide int) *Workload {
	sc := crash.Script[*crash.Map]{Seed: 42, Batches: batches,
		Batch: func(s *crash.Map, rng *rand.Rand, b int) error {
			if badCommit && b == 0 {
				s.RT.SetCommitBeforeFlushFault(true)
			}
			for i := 0; i < ops; i++ {
				k := uint64(rng.Int63n(keys)) + 1
				if rng.Intn(4) == 3 {
					s.M.Remove(0, k)
				} else {
					s.M.Insert(0, k, k*1000+uint64(b))
				}
				s.M.PerOp(0)
			}
			return nil
		}}
	if collide > 0 {
		sc.Collide = func(s *crash.Map, rng *rand.Rand, b int) error {
			for i := 0; i < collide; i++ {
				k := uint64(rng.Int63n(keys)) + 1
				s.M.Insert(0, k, k*7+uint64(b))
				s.M.PerOp(0)
			}
			return nil
		}
	}
	return row(name, func(san bool) (*crash.Map, error) { return crash.NewMap(explorerEnv(async, san), 64) }, sc)
}

func kvKey(rng *rand.Rand, keys int) string { return fmt.Sprintf("key-%02d", rng.Intn(keys)) }

// kvOps is one batch of plain-store sets and deletes: variable-length keys
// and values, record allocation and free-list churn on delete.
func kvOps(st *kv.RespctStore, rng *rand.Rand, b, ops, keys int) {
	for i := 0; i < ops; i++ {
		if key := kvKey(rng, keys); rng.Intn(4) == 3 {
			st.Delete(0, key)
		} else {
			st.Set(0, key, []byte(fmt.Sprintf("v%d-%d", b, i)))
		}
		st.PerOp(0)
	}
}

// kvRow is mapRow's shape over kv.RespctStore.
func kvRow(name string, async bool, batches, ops, keys, collide int) *Workload {
	sc := crash.Script[*crash.KV]{Seed: 7, Batches: batches,
		Batch: func(s *crash.KV, rng *rand.Rand, b int) error {
			kvOps(s.St, rng, b, ops, keys)
			return nil
		}}
	if collide > 0 {
		sc.Collide = func(s *crash.KV, rng *rand.Rand, b int) error {
			for i := 0; i < collide; i++ {
				s.St.Set(0, kvKey(rng, keys), []byte(fmt.Sprintf("c%d-%d", b, i)))
				s.St.PerOp(0)
			}
			return nil
		}
	}
	return row(name, func(san bool) (*crash.KV, error) {
		return crash.NewKV(explorerEnv(async, san), kv.StoreOptions{Buckets: 128})
	}, sc)
}

// shardRow drives a 2-shard pool through its routing Store with staggered
// inline checkpoints: shard b%2 checkpoints after batch b, so the two heaps'
// epochs deliberately diverge and each must land on its own last completed
// checkpoint.
func shardRow(name string, batches, ops, keys int) *Workload {
	return row(name, func(san bool) (*crash.Pool, error) {
		return crash.NewPool(shard.Config{Shards: 2, Workers: 1, Buckets: 128, HeapBytes: workloadHeapBytes,
			Chaos: true, Seed: 1, SerialFlush: true, Sanitize: san, RecoveryParallelism: 1})
	}, crash.Script[*crash.Pool]{Seed: 11, Batches: batches,
		Batch: func(s *crash.Pool, rng *rand.Rand, b int) error {
			for i := 0; i < ops; i++ {
				if key := kvKey(rng, keys); rng.Intn(4) == 3 {
					s.Store.Delete(0, key)
				} else {
					s.Store.Set(0, key, []byte(fmt.Sprintf("v%d-%d", b, i)))
				}
			}
			return nil
		},
		Cut: func(s *crash.Pool, b int) error {
			s.P.Shard(b % s.P.NumShards()).RT.Checkpoint()
			return nil
		}})
}

// framesRow snapshots the persistent image into a frame store after every
// checkpoint, each full set replacing the last, and kills the final snapshot
// mid-container-write through a CrashFS byte budget, so its manifest update
// never happens. At every crash point this checks that frame round-trips are
// exact (the restored image recovers to a certified boundary, whatever the
// heap's own crash left behind; snapshots after the heap's crash capture its
// frozen persistent image) and that an aborted snapshot falls back to the
// previous certified set. Snapshot writes touch no heap lines, so the
// crash-point space is a plain kv workload's.
func framesRow(name string, batches, ops, keys int, budget int64) *Workload {
	// 4 KiB frames over the 8 MiB heap, two workers (container bytes are
	// worker-count invariant).
	params := frame.Params{FrameBytes: 4 << 10, Workers: 2}
	return row(name, func(san bool) (*crash.FramedKV, error) {
		return crash.NewFramedKV(explorerEnv(false, san), 128, params)
	}, crash.Script[*crash.FramedKV]{Seed: 23, Batches: batches,
		Batch: func(s *crash.FramedKV, rng *rand.Rand, b int) error {
			kvOps(s.St, rng, b, ops, keys)
			return nil
		},
		Cut: func(s *crash.FramedKV, b int) error {
			crash.Inline(s.RT)
			if b < batches-1 {
				if _, err := s.Frames.Snapshot(s.RT.Heap(), s.RT.DurableEpoch()); err != nil {
					return fmt.Errorf("kv-frames: snapshot after batch %d: %w", b, err)
				}
				return nil
			}
			s.FS.Arm(budget)
			if _, err := s.Frames.Snapshot(s.RT.Heap(), s.RT.DurableEpoch()); !errors.Is(err, frame.ErrCrashed) {
				return fmt.Errorf("kv-frames: final snapshot survived a %d-byte write budget (err=%v)", budget, err)
			}
			return nil
		}})
}

// applyFrame encodes one deterministic request batch, decodes it back
// exactly as it arrives at a server connection, and executes it whole with
// kv.ApplyFrame — what a server connection does with a frame under its
// lease, one gated store call per operation (one Batch window when atomic).
func applyFrame(st kv.Store, build func(b *wire.ReqBuilder)) error {
	var b wire.ReqBuilder
	build(&b)
	var f wire.ReqFrame
	if err := f.Decode(bytes.NewReader(b.Bytes())); err != nil {
		return err
	}
	var resp wire.RespBuilder
	return kv.ApplyFrame(st, 0, &f, &resp)
}

// batchRow drives a gated store through the server's binary batch path, one
// frame per batch. The async variant applies a further frame while the
// previous epoch's drain is parked — a client batch in flight across the
// checkpoint cut — so the checker proves a frame is never split across a
// certified epoch.
func batchRow(name string, async bool, frames, ops, keys int) *Workload {
	batch := func(s *crash.KV, rng *rand.Rand, round int) error {
		return applyFrame(s.Gated, func(b *wire.ReqBuilder) {
			for i := 0; i < ops; i++ {
				switch key := kvKey(rng, keys); rng.Intn(5) {
				case 0:
					b.Delete(key)
				case 1:
					b.Get(key)
				default:
					b.Set(key, []byte(fmt.Sprintf("v%d-%d", round, i)))
				}
			}
		})
	}
	sc := crash.Script[*crash.KV]{Seed: 23, Batches: frames, Batch: batch}
	if async {
		sc.Collide = func(s *crash.KV, rng *rand.Rand, round int) error { return batch(s, rng, 100+round) }
	}
	return row(name, func(san bool) (*crash.KV, error) {
		return crash.NewKV(explorerEnv(async, san), kv.StoreOptions{Buckets: 128})
	}, sc)
}

// structRow drives one multi-model command family of the structures store:
// ordered-index churn behind SCAN, the TTL lifecycle with the boundary
// sweep, queue push/pop, log appends, or atomic MULTI frames. The state
// certified at every cut is the store's full SnapshotLogical, so every
// family's mutations are proven crash-atomic, and recovery checks that the
// two indexes agree. Time is the subject's clock, advanced once per batch,
// so TTL deadlines, the sweep and the trace are deterministic.
func structRow(name, family string, batches, ops, keys int) *Workload {
	return row(name, func(san bool) (*crash.KV, error) {
		return crash.NewKV(explorerEnv(false, san), kv.StoreOptions{Buckets: 128, Structures: true})
	}, crash.Script[*crash.KV]{Seed: 31, Batches: batches,
		Batch: func(s *crash.KV, rng *rand.Rand, b int) error {
			if family == "multi" {
				return applyFrame(s.Gated, func(f *wire.ReqBuilder) {
					f.SetAtomic()
					for i := 0; i < ops; i++ {
						switch key := kvKey(rng, keys); rng.Intn(5) {
						case 0:
							f.Delete(key)
						case 1:
							f.Expire(key, s.Clock.Load()+uint64(rng.Intn(3)))
						default:
							f.Set(key, []byte(fmt.Sprintf("v%d-%d", b, i)))
						}
					}
				})
			}
			for i := 0; i < ops; i++ {
				if err := structOp(s, family, rng, b, i, keys); err != nil {
					return err
				}
				s.St.PerOp(0)
			}
			return nil
		},
		Cut: func(s *crash.KV, b int) error {
			now := s.Clock.Add(1)
			if family == "ttl" {
				// The boundary sweep runs inside the epoch the checkpoint is
				// about to cut, mirroring shard.Pool.checkpointShard.
				s.St.SweepExpired(0, now)
				s.St.PerOp(0)
			}
			crash.Inline(s.RT)
			return nil
		}})
}

// structOp issues one deterministic operation of family.
func structOp(s *crash.KV, family string, rng *rand.Rand, b, i, keys int) error {
	st := s.St
	switch family {
	case "scan":
		switch key := kvKey(rng, keys); rng.Intn(5) {
		case 0:
			st.Delete(0, key)
		case 1:
			st.Scan(0, "key-00", "key-99", 8)
		default:
			st.Set(0, key, []byte(fmt.Sprintf("v%d-%d", b, i)))
		}
	case "ttl":
		switch key := kvKey(rng, keys); rng.Intn(4) {
		case 0:
			st.Expire(0, key, s.Clock.Load()+uint64(rng.Intn(3)))
		case 1:
			st.Get(0, key)
		default:
			st.Set(0, key, []byte(fmt.Sprintf("v%d-%d", b, i)))
		}
	case "queue":
		name := []string{"qa", "qb"}[rng.Intn(2)]
		if rng.Intn(3) == 0 {
			_, _, err := st.QPop(0, name)
			return err
		}
		return st.QPush(0, name, []byte(fmt.Sprintf("j%d-%d", b, i)))
	case "log":
		name := []string{"la", "lb"}[rng.Intn(2)]
		if rng.Intn(4) == 0 {
			_, err := st.LRange(0, name, uint64(rng.Intn(4)), 4)
			return err
		}
		_, err := st.LAppend(0, name, []byte(fmt.Sprintf("r%d-%d", b, i)))
		return err
	default:
		return fmt.Errorf("crashexplore: unknown struct family %q", family)
	}
	return nil
}
