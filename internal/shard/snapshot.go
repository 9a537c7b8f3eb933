package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/respct/respct/internal/frame"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/telemetry"
)

// ShardFile derives shard i's legacy whole-image path from a base path:
// "kv.img" becomes "kv-0.img", "kv-1.img", …; a base without an extension
// gets "-<i>" appended.
func ShardFile(base string, i int) string {
	ext := filepath.Ext(base)
	return fmt.Sprintf("%s-%d%s", strings.TrimSuffix(base, ext), i, ext)
}

// ShardFrameDir derives shard i's frame-store directory from the same base:
// "kv.img" becomes "kv-0.fset", "kv-1.fset", …. Legacy images and frame
// stores for the same base therefore never collide.
func ShardFrameDir(base string, i int) string {
	return fmt.Sprintf("%s-%d.fset", strings.TrimSuffix(base, filepath.Ext(base)), i)
}

// SnapshotFiles checkpoints every shard, then writes each shard's persistent
// image to ShardFile(base, i). Every image is written to a temporary file in
// the same directory and renamed into place, so a crash mid-write never
// leaves a truncated image under the final name; on error the already-written
// shards keep their previous images. Stale temp files left by a previous
// crashed writer are collected first.
func (p *Pool) SnapshotFiles(base string) error {
	p.CheckpointAll()
	// Async pools: the persistent images are only complete once the
	// background drains have committed their epochs.
	p.WaitDrains()
	removeStaleTemps(base)
	err := eachShard(len(p.shards), func(i int) error {
		return writeImageAtomic(ShardFile(base, i), p.shards[i].Heap)
	})
	if err != nil {
		return err
	}
	for _, sh := range p.shards {
		sh.RT.Flight().Record(telemetry.FlightSnapshot, sh.RT.DurableEpoch(), 0, 0)
	}
	return nil
}

// SnapshotFrames checkpoints every shard, then snapshots each shard's
// persistent image into the frame store under ShardFrameDir(base, i) — all
// shards in parallel, and each shard's frames in parallel per params. The
// first snapshot of a shard writes a full frame set; later calls on the same
// pool write incremental deltas carrying only the lines churned since the
// previous call, compacting per params. Failed shards keep their previous
// certified chain.
func (p *Pool) SnapshotFrames(base string, params frame.Params) ([]*frame.SnapshotResult, error) {
	p.CheckpointAll()
	p.WaitDrains()
	stores, err := p.frameStores(base, params)
	if err != nil {
		return nil, err
	}
	results := make([]*frame.SnapshotResult, len(p.shards))
	err = eachShard(len(p.shards), func(i int) error {
		sh := p.shards[i]
		// The async runtime's pending maps cover lines an in-flight drain
		// still owes; union them in so a delta never under-covers.
		res, err := stores[i].Snapshot(sh.Heap, sh.RT.DurableEpoch(), sh.RT.DirtyLineBits())
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		results[i] = res
		sh.RT.Flight().Record(telemetry.FlightFrameSnap, sh.RT.DurableEpoch(),
			uint64(res.Info.Kind), uint64(res.Info.Bytes))
		if res.Compacted > 0 {
			sh.RT.Flight().Record(telemetry.FlightCompaction, sh.RT.DurableEpoch(),
				uint64(res.Compacted), uint64(res.Info.Bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// frameStores returns the pool's per-shard frame stores for base, creating
// and caching them on first use. Caching matters: a Store only writes deltas
// for a heap whose churn window it has been tracking continuously.
func (p *Pool) frameStores(base string, params frame.Params) ([]*frame.Store, error) {
	p.framesMu.Lock()
	defer p.framesMu.Unlock()
	if p.frames == nil {
		p.frames = make(map[string][]*frame.Store)
	}
	if stores, ok := p.frames[base]; ok {
		return stores, nil
	}
	var metrics *frame.Metrics
	if p.cfg.Metrics != nil {
		metrics = frame.NewMetrics(p.cfg.Metrics)
	}
	stores := make([]*frame.Store, len(p.shards))
	for i := range p.shards {
		st, err := frame.NewStore(frame.DirFS{Dir: ShardFrameDir(base, i)}, params, metrics)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		stores[i] = st
	}
	p.frames[base] = stores
	return stores, nil
}

// writeImageAtomic snapshots h into path via a temp file + rename.
func writeImageAtomic(path string, h *pmem.Heap) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := h.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// removeStaleTemps deletes leftover "<shard image>.tmp*" files a crashed
// writer abandoned next to base. Best-effort.
func removeStaleTemps(base string) {
	dir := filepath.Dir(base)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	prefix := strings.TrimSuffix(filepath.Base(base), filepath.Ext(base)) + "-"
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, prefix) && strings.Contains(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// shardSnapshot reports how (and whether) shard i previously snapshotted
// under base: a certified frame store wins over a legacy whole image; temp
// leftovers from a crashed legacy writer ("kv-2.img.tmp123") are never
// mistaken for shard images.
func shardSnapshot(base string, i int) (frames, legacy bool) {
	if _, err := os.Stat(filepath.Join(ShardFrameDir(base, i), frame.ManifestName)); err == nil {
		frames = true
	}
	// Stat the exact committed name only. (Matching on prefixes would count
	// stale temp files; see TestDiscoveryIgnoresStaleTemps.)
	if st, err := os.Stat(ShardFile(base, i)); err == nil && !st.IsDir() {
		legacy = true
	}
	return frames, legacy
}

// HaveSnapshotFiles reports whether all cfg.Shards snapshots exist under
// base (a complete previous run to recover from), in either format. Stale
// temp files do not count.
func HaveSnapshotFiles(base string, shards int) bool {
	for i := 0; i < shards; i++ {
		frames, legacy := shardSnapshot(base, i)
		if !frames && !legacy {
			return false
		}
	}
	return true
}

// SnapshotFileCount returns the number of consecutive shard snapshots
// present under base (shard 0, 1, … until the first gap, counting either a
// certified frame store or a legacy image) — the shard count a previous run
// snapshotted with. Callers must refuse to recover with a different count:
// fewer shards would silently drop the extra images' keys, more would start
// empty, and either way the router modulus would no longer match the on-disk
// partitioning. Stale ".tmp" leftovers from a crashed writer are ignored.
func SnapshotFileCount(base string) int {
	n := 0
	for {
		frames, legacy := shardSnapshot(base, n)
		if !frames && !legacy {
			return n
		}
		n++
	}
}

// OpenPoolFiles opens every shard snapshot under base and recovers the pool
// from them (all shards in parallel). Each shard restores from its certified
// frame chain when one exists, falling back to its legacy whole image, so a
// store written by either snapshot path — or mid-migration between them —
// recovers. The shard count of cfg must match the count the snapshots were
// written with.
func OpenPoolFiles(cfg Config, base string) (*Pool, *RecoveryReport, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	heaps := make([]*pmem.Heap, cfg.Shards)
	err := eachShard(cfg.Shards, func(i int) (err error) {
		heaps[i], err = openShardHeap(base, i)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return Recover(cfg, heaps)
}

// openShardHeap rebuilds one shard's heap from its preferred snapshot form.
func openShardHeap(base string, i int) (*pmem.Heap, error) {
	if frames, _ := shardSnapshot(base, i); frames {
		st, err := frame.NewStore(frame.DirFS{Dir: ShardFrameDir(base, i)}, frame.Params{}, nil)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		img, _, err := st.Restore(0)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		h, err := pmem.OpenImageBytes(img, pmem.NVMMConfig(0))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		return h, nil
	}
	path := ShardFile(base, i)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h, err := pmem.Open(f, pmem.NVMMConfig(0))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}
