package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/frame"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/telemetry"
)

// ShardFrameDir derives shard i's frame-store directory from a base path:
// "kv.img" becomes "kv-0.fset", "kv-1.fset", …; a base without an extension
// gets "-<i>.fset" appended.
func ShardFrameDir(base string, i int) string {
	return fmt.Sprintf("%s-%d.fset", strings.TrimSuffix(base, filepath.Ext(base)), i)
}

// SnapshotFrames writes each shard's live image (core.LiveImage) as a full
// frame set into the frame store under ShardFrameDir(base, i), where it
// replaces the certified set: all shards in parallel, and each shard's frames
// in parallel per params. Failed shards keep their previous certified set.
//
// Every shard first returns its magazine blocks to the free lists
// (core.Runtime.ReturnMagazines) at the next checkpoint, and a second
// checkpoint makes those pushes durable, so a restart from the set leaks no
// freed block and the set carries none of their payloads. Each shard's
// checkpoints are then held off while its frames are encoded: a commit
// mid-encode could make a block the view elides live again. The pool may
// keep serving throughout; a snapshot of a running pool captures the cut it
// holds.
func (p *Pool) SnapshotFrames(base string, params frame.Params) ([]*frame.SnapshotResult, error) {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	for _, sh := range p.shards {
		sh.RT.ReturnMagazines()
	}
	for range 2 {
		p.CheckpointAll()
		p.WaitDrains()
	}
	results := make([]*frame.SnapshotResult, len(p.shards))
	err := eachShard(len(p.shards), func(i int) error {
		sh := p.shards[i]
		st, err := frame.NewStore(frame.DirFS{Dir: ShardFrameDir(base, i)}, params)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		release := sh.RT.HoldCheckpoints()
		defer release()
		src, err := core.NewLiveImage(sh.Heap)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		epoch := sh.RT.DurableEpoch()
		res, err := st.Snapshot(src, epoch)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		results[i] = res
		sh.RT.Flight().Record(telemetry.FlightFrameSnap, epoch, uint64(res.Info.Lines), uint64(res.Info.Bytes))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// LegacyImageError reports a base whose shard 0 exists only as a whole-image
// file written before frame stores became the one on-disk format. Such a
// store is refused, never started empty over.
type LegacyImageError struct {
	Path string // the legacy image found
}

func (e *LegacyImageError) Error() string {
	return e.Path + " is a legacy whole-image snapshot: only frame stores (<base>-<i>.fset) are read and there is no migration"
}

// SnapshotFileCount returns the number of consecutive shards with a certified
// frame store under base (shard 0, 1, … until the first gap) — the shard
// count a previous run snapshotted with, 0 for a fresh base. Callers must
// refuse to recover with a different count: fewer shards would silently drop
// the extra stores' keys, more would start empty, and either way the router
// modulus would no longer match the on-disk partitioning. A base holding no
// frame store but a legacy image of shard 0 is a *LegacyImageError.
func SnapshotFileCount(base string) (int, error) {
	n := 0
	for {
		if _, err := os.Stat(filepath.Join(ShardFrameDir(base, n), frame.ManifestName)); err != nil {
			break
		}
		n++
	}
	if n == 0 {
		ext := filepath.Ext(base)
		legacy := strings.TrimSuffix(base, ext) + "-0" + ext
		if st, err := os.Stat(legacy); err == nil && st.Mode().IsRegular() {
			return 0, &LegacyImageError{Path: legacy}
		}
	}
	return n, nil
}

// OpenPoolFiles restores every shard's heap from its certified frame set
// under base and recovers the pool from them (all shards in parallel). The
// shard count of cfg must match the count the snapshots were written with.
func OpenPoolFiles(cfg Config, base string) (*Pool, *RecoveryReport, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	heaps := make([]*pmem.Heap, cfg.Shards)
	err := eachShard(cfg.Shards, func(i int) (err error) {
		if heaps[i], err = openShardHeap(base, i); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return Recover(cfg, heaps)
}

// openShardHeap boots one shard's heap straight from its frame set.
func openShardHeap(base string, i int) (*pmem.Heap, error) {
	st, err := frame.NewStore(frame.DirFS{Dir: ShardFrameDir(base, i)}, frame.Params{})
	if err != nil {
		return nil, err
	}
	sink := &frame.HeapSink{Config: pmem.NVMMConfig(0)}
	if _, err := st.Restore(sink, 0); err != nil {
		return nil, err
	}
	return sink.Heap()
}
