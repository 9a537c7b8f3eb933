package crashexplore

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/wire"
)

// kvStructWorkload drives one multi-model command family of the structures
// store (kv.StoreOptions.Structures) with a deterministic op stream and
// inline checkpoints: ordered-index churn behind SCAN, the TTL lifecycle
// with the boundary sweep, queue push/pop, log appends, or atomic MULTI
// frames through kv.ApplyFrame. The logical state certified at every cut is
// the store's full SnapshotLogical — KV entries with their persistent
// deadlines plus the ordered-index, queue and log pseudo-keys — so the
// checker proves every family's mutations are crash-atomic, not just the
// flat map.
//
// Time is a workload-owned counter (advanced once per batch), so TTL
// deadlines, the sweep and therefore the trace are fully deterministic.
type kvStructWorkload struct {
	name        string
	family      string // "scan", "ttl", "queue", "log" or "multi"
	batches     int
	opsPerBatch int
	keySpace    int
}

func (w *kvStructWorkload) Name() string { return w.name }

func (w *kvStructWorkload) Setup(rec *pmem.Recorder, sanitize bool) (Run, error) {
	h := explorerHeap()
	rt, err := core.NewRuntime(h, explorerCoreConfig(false, sanitize))
	if err != nil {
		return nil, err
	}
	r := &kvStructRun{w: w, h: h, rt: rt, clock: 1000, certified: Certified{}}
	st, err := kv.NewRespctStoreOpts(rt, 0, kv.StoreOptions{
		Buckets: 128, Structures: true, Clock: func() uint64 { return r.clock }})
	if err != nil {
		return nil, err
	}
	r.st, r.gated = st, kv.Gate(st)
	rt.SetQuiescedHook(func(ending uint64) {
		r.certified[ending] = State(st.SnapshotLogical())
	})
	initialCheckpoint(rt, false)
	rec.Attach(h)
	return r, nil
}

type kvStructRun struct {
	w         *kvStructWorkload
	h         *pmem.Heap
	rt        *core.Runtime
	st        *kv.RespctStore // driven directly, inside Execute's own window
	gated     *kv.GatedStore  // st as a server sees it: ApplyFrame's target
	clock     uint64          // workload-owned ms clock, read by the store
	certified Certified
}

func (r *kvStructRun) key(rng *rand.Rand) string {
	return fmt.Sprintf("key-%02d", rng.Intn(r.w.keySpace))
}

// batchOp issues one deterministic operation of the run's family.
func (r *kvStructRun) batchOp(rng *rand.Rand, b, i int) error {
	st := r.st
	switch r.w.family {
	case "scan":
		// Ordered-index churn: the skiplist repoints on overwrite, drops on
		// delete, and the read-only scan walks it mid-stream.
		switch key := r.key(rng); rng.Intn(5) {
		case 0:
			st.Delete(0, key)
		case 1:
			st.Scan(0, "key-00", "key-99", 8)
		default:
			st.Set(0, key, []byte(fmt.Sprintf("v%d-%d", b, i)))
		}
	case "ttl":
		switch key := r.key(rng); rng.Intn(4) {
		case 0:
			st.Expire(0, key, r.clock+uint64(rng.Intn(3)))
		case 1:
			st.Get(0, key)
		default:
			st.Set(0, key, []byte(fmt.Sprintf("v%d-%d", b, i)))
		}
	case "queue":
		name := []string{"qa", "qb"}[rng.Intn(2)]
		if rng.Intn(3) == 0 {
			if _, _, err := st.QPop(0, name); err != nil {
				return err
			}
		} else if err := st.QPush(0, name, []byte(fmt.Sprintf("j%d-%d", b, i))); err != nil {
			return err
		}
	case "log":
		name := []string{"la", "lb"}[rng.Intn(2)]
		if rng.Intn(4) == 0 {
			if _, err := st.LRange(0, name, uint64(rng.Intn(4)), 4); err != nil {
				return err
			}
		} else if _, err := st.LAppend(0, name, []byte(fmt.Sprintf("r%d-%d", b, i))); err != nil {
			return err
		}
	default:
		return fmt.Errorf("crashexplore: unknown struct family %q", r.w.family)
	}
	st.PerOp(0)
	return nil
}

// multiFrame builds and applies one atomic MULTI frame, exactly as a server
// worker runs a FlagAtomic batch: validated, then executed whole inside the
// gated store's single Batch window with per-op restart points.
func (r *kvStructRun) multiFrame(rng *rand.Rand, round int) error {
	var b wire.ReqBuilder
	b.SetAtomic()
	for i := 0; i < r.w.opsPerBatch; i++ {
		key := r.key(rng)
		switch rng.Intn(5) {
		case 0:
			b.Delete(key)
		case 1:
			b.Expire(key, r.clock+uint64(rng.Intn(3)))
		default:
			b.Set(key, []byte(fmt.Sprintf("v%d-%d", round, i)))
		}
	}
	var f wire.ReqFrame
	if err := f.Decode(bytes.NewReader(b.Bytes())); err != nil {
		return err
	}
	var resp wire.RespBuilder
	return kv.ApplyFrame(r.gated, 0, &f, &resp)
}

func (r *kvStructRun) Execute() error {
	w := r.w
	t := r.rt.Thread(0)
	rng := rand.New(rand.NewSource(31))
	for b := 0; b < w.batches; b++ {
		if w.family == "multi" {
			if err := r.multiFrame(rng, b); err != nil {
				return err
			}
		} else {
			for i := 0; i < w.opsPerBatch; i++ {
				if err := r.batchOp(rng, b, i); err != nil {
					return err
				}
			}
		}
		r.clock++
		if w.family == "ttl" {
			// The boundary sweep runs inside the epoch the checkpoint is
			// about to cut, mirroring shard.Pool.checkpointShard.
			r.st.SweepExpired(0, r.clock)
			r.st.PerOp(0)
		}
		t.CheckpointAllow()
		r.rt.Checkpoint()
		t.CheckpointPrevent(nil)
	}
	return nil
}

func (r *kvStructRun) Certified(int) Certified { return r.certified }

func (r *kvStructRun) SanFindings() []string { return r.rt.SanFindings() }

func (r *kvStructRun) Recover() ([]Recovered, error) {
	rt2, rep, err := core.Recover(r.h, explorerCoreConfig(false, false), 1)
	if err != nil {
		return nil, err
	}
	st2, err := kv.OpenRespctStoreOpts(rt2, 0, kv.StoreOptions{
		Structures: true, Clock: func() uint64 { return r.clock }})
	if err != nil {
		return nil, err
	}
	// The logical state digests the ordered index by key only; the pointers
	// between the two indexes are checked here, at every crash point.
	if err := st2.CheckIndexes(); err != nil {
		return nil, err
	}
	return []Recovered{{FailedEpoch: rep.FailedEpoch, State: State(st2.SnapshotLogical())}}, nil
}
