package crashexplore

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/frame"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
)

// kvFramesWorkload drives a kv.RespctStore whose durability lives in a
// frame-snapshot chain (internal/frame) rather than the heap itself: after
// every inline checkpoint the persistent image is snapshotted into an
// in-memory frame store — a full set first, then incremental deltas — and
// the FINAL snapshot is killed mid-container-write through a CrashFS write
// budget, so its manifest update never happens. Recover restores the heap
// from the latest certified chain and runs ordinary recovery on the restored
// image.
//
// This checks two contracts at every explored crash point:
//
//   - Frame round-trips are exact: the restored image recovers to a
//     certified checkpoint boundary exactly as the crashed heap itself
//     would, no matter where in the flush schedule the heap died (the
//     snapshots after the heap's crash capture its frozen persistent image).
//   - Aborted snapshot writes fall back: the killed final snapshot leaves
//     only orphan bytes, so recovery lands on the previous certified set —
//     an older but still certified checkpoint boundary.
//
// Snapshot writes touch no heap lines, so the workload's trace (and its
// crash-point space) is identical to a plain kv workload's.
type kvFramesWorkload struct {
	name        string
	batches     int
	opsPerBatch int
	keySpace    int
	crashBudget int64 // CrashFS byte budget armed before the final snapshot
}

func (w *kvFramesWorkload) Name() string { return w.name }

// frameParams keeps containers small and deterministic: 4 KiB frames over
// the 8 MiB explorer heap, two workers (container bytes are worker-count
// invariant), no compaction pressure within the run.
func (w *kvFramesWorkload) frameParams() frame.Params {
	return frame.Params{FrameBytes: 4 << 10, Workers: 2}
}

func (w *kvFramesWorkload) Setup(rec *pmem.Recorder, sanitize bool) (Run, error) {
	h := explorerHeap()
	rt, err := core.NewRuntime(h, explorerCoreConfig(false, sanitize))
	if err != nil {
		return nil, err
	}
	st, err := kv.NewRespctStore(rt, 0, 128)
	if err != nil {
		return nil, err
	}
	crash := frame.NewCrashFS(frame.NewMemFS(), 1<<62)
	store, err := frame.NewStore(crash, w.frameParams(), nil)
	if err != nil {
		return nil, err
	}
	r := &kvFramesRun{w: w, h: h, rt: rt, st: st, crash: crash, store: store, certified: Certified{}}
	rt.SetQuiescedHook(func(ending uint64) {
		r.certified[ending] = State(st.SnapshotLogical())
	})
	initialCheckpoint(rt, false)
	rec.Attach(h)
	return r, nil
}

type kvFramesRun struct {
	w         *kvFramesWorkload
	h         *pmem.Heap
	rt        *core.Runtime
	st        *kv.RespctStore
	crash     *frame.CrashFS
	store     *frame.Store
	certified Certified
}

func (r *kvFramesRun) Execute() error {
	w := r.w
	rt, st := r.rt, r.st
	t := rt.Thread(0)
	rng := rand.New(rand.NewSource(23))
	for b := 0; b < w.batches; b++ {
		for i := 0; i < w.opsPerBatch; i++ {
			key := fmt.Sprintf("key-%02d", rng.Intn(w.keySpace))
			if rng.Intn(4) == 3 {
				st.Delete(0, key)
			} else {
				st.Set(0, key, []byte(fmt.Sprintf("v%d-%d", b, i)))
			}
			st.PerOp(0)
		}
		t.CheckpointAllow()
		rt.Checkpoint()
		t.CheckpointPrevent(nil)
		if b == w.batches-1 {
			// The last snapshot dies mid-container-write: the manifest is
			// never updated, so recovery must fall back to batch b-1's chain.
			r.crash.Arm(w.crashBudget)
			if _, err := r.store.Snapshot(r.h, rt.DurableEpoch(), nil); !errors.Is(err, frame.ErrCrashed) {
				return fmt.Errorf("kv-frames: final snapshot survived a %d-byte write budget (err=%v)", w.crashBudget, err)
			}
		} else if _, err := r.store.Snapshot(r.h, rt.DurableEpoch(), nil); err != nil {
			return fmt.Errorf("kv-frames: snapshot after batch %d: %w", b, err)
		}
	}
	return nil
}

func (r *kvFramesRun) Certified(int) Certified { return r.certified }

func (r *kvFramesRun) SanFindings() []string { return r.rt.SanFindings() }

// Recover restores the heap from the latest certified frame chain and runs
// the standard recovery pass over the restored image — never touching the
// crashed heap, exactly like a reboot onto the snapshot store.
func (r *kvFramesRun) Recover() ([]Recovered, error) {
	var sink frame.HeapSink
	if _, err := r.store.Restore(&sink, 1); err != nil {
		return nil, err
	}
	h2, err := sink.Heap()
	if err != nil {
		return nil, err
	}
	rt2, rep, err := core.Recover(h2, explorerCoreConfig(false, false), 1)
	if err != nil {
		return nil, err
	}
	st2, err := kv.OpenRespctStore(rt2, 0)
	if err != nil {
		return nil, err
	}
	return []Recovered{{FailedEpoch: rep.FailedEpoch, State: State(st2.SnapshotLogical())}}, nil
}
