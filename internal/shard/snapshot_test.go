package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/respct/respct/internal/frame"
)

// TestLegacyImageRefused: a base whose shard 0 exists only as a whole-image
// file from before frame stores is refused by name, never read as "no
// snapshot yet" (which would start an empty store over it). A certified frame
// store beside the file wins, as it always did.
func TestLegacyImageRefused(t *testing.T) {
	base := filepath.Join(t.TempDir(), "kv.img")
	if n, err := SnapshotFileCount(base); n != 0 || err != nil {
		t.Fatalf("fresh base: %d, %v", n, err)
	}
	legacy := filepath.Join(filepath.Dir(base), "kv-0.img")
	if err := os.WriteFile(legacy, []byte("RESPCTPM"), 0o644); err != nil {
		t.Fatal(err)
	}
	var lerr *LegacyImageError
	if n, err := SnapshotFileCount(base); n != 0 || !errors.As(err, &lerr) || lerr.Path != legacy {
		t.Fatalf("legacy-only base: %d, %v", n, err)
	}
	if msg := lerr.Error(); !strings.Contains(msg, legacy) || !strings.Contains(msg, "no migration") {
		t.Fatalf("refusal does not name the file and the missing migration: %q", msg)
	}

	p, err := NewPool(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.SnapshotFrames(base, frame.Params{}); err != nil {
		t.Fatal(err)
	}
	if n, err := SnapshotFileCount(base); n != 1 || err != nil {
		t.Fatalf("frame store beside a legacy image: %d, %v", n, err)
	}
}

// TestPoolFrameSnapshotRoundTrip drives the snapshot path end to end:
// full sets, then an incremental delta whose size scales with churn, then
// recovery via OpenPoolFiles from the frame chains.
func TestPoolFrameSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "kv.img")
	cfg := testConfig(3, 2)
	params := frame.Params{FrameBytes: 1 << 16}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Store()
	for i := 0; i < 400; i++ {
		s.Set(0, fmt.Sprintf("fr%04d", i), []byte(fmt.Sprintf("val%d", i)))
	}
	res, err := p.SnapshotFrames(base, params)
	if err != nil {
		t.Fatal(err)
	}
	var fullBytes int64
	for i, r := range res {
		if r.Info.Kind != frame.KindFull {
			t.Fatalf("shard %d first snapshot: %v, want full", i, r.Info.Kind)
		}
		fullBytes += r.Info.Bytes
	}

	// Touch a handful of keys; the deltas must carry lines, not heaps.
	for i := 0; i < 20; i++ {
		s.Set(0, fmt.Sprintf("fr%04d", i), []byte("churned"))
	}
	res, err = p.SnapshotFrames(base, params)
	if err != nil {
		t.Fatal(err)
	}
	var deltaBytes int64
	for i, r := range res {
		if r.Info.Kind != frame.KindDelta {
			t.Fatalf("shard %d second snapshot: %v, want delta", i, r.Info.Kind)
		}
		deltaBytes += r.Info.Bytes
	}
	if deltaBytes*10 > fullBytes {
		t.Fatalf("deltas total %d bytes vs full %d — not incremental", deltaBytes, fullBytes)
	}
	p.Close()

	// Discovery counts exactly the stores written, and only frame stores: the
	// directory must hold nothing else.
	if got, err := SnapshotFileCount(base); got != cfg.Shards || err != nil {
		t.Fatalf("SnapshotFileCount = %d, %v, want %d", got, err, cfg.Shards)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() || !strings.HasSuffix(e.Name(), ".fset") {
			t.Fatalf("snapshot left %s beside the frame stores", e.Name())
		}
	}

	p2, rep, err := OpenPoolFiles(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if len(rep.PerShard) != cfg.Shards || len(rep.FailedEpochs()) != cfg.Shards {
		t.Fatalf("report covers %d shards, want %d", len(rep.PerShard), cfg.Shards)
	}
	if rep.CellsScanned == 0 || rep.BlocksScanned == 0 {
		t.Fatalf("empty merged report: %+v", rep)
	}
	s2 := p2.Store()
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("fr%04d", i)
		want := fmt.Sprintf("val%d", i)
		if i < 20 {
			want = "churned"
		}
		if v, ok := s2.Get(0, key); !ok || string(v) != want {
			t.Fatalf("key %s after frame recovery: %q,%v want %q", key, v, ok, want)
		}
	}
	if got := len(s2.SnapshotLogical()); got != 400 {
		t.Fatalf("recovered %d keys, want 400", got)
	}
}

// TestFrameSnapshotsStayIncrementalAcrossRecovery reopens a frame-snapshotted
// pool and checks the next snapshot is a (chain-extending) full set — churn
// windows die with the process — followed again by deltas.
func TestFrameSnapshotsStayIncrementalAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "kv.img")
	cfg := testConfig(2, 1)
	params := frame.Params{FrameBytes: 1 << 16}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Store()
	for i := 0; i < 100; i++ {
		s.Set(0, fmt.Sprintf("k%03d", i), []byte("v"))
	}
	if _, err := p.SnapshotFrames(base, params); err != nil {
		t.Fatal(err)
	}
	p.Close()

	p2, _, err := OpenPoolFiles(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	res, err := p2.SnapshotFrames(base, params)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Info.Kind != frame.KindFull {
			t.Fatalf("shard %d first post-recovery snapshot: %v, want full", i, r.Info.Kind)
		}
	}
	p2.Store().Set(0, "k000", []byte("post-recovery"))
	res, err = p2.SnapshotFrames(base, params)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Info.Kind != frame.KindDelta {
			t.Fatalf("shard %d second post-recovery snapshot: %v, want delta", i, r.Info.Kind)
		}
	}
	// And the chain still restores: check the churned key one more time.
	p3, _, err := OpenPoolFiles(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if v, ok := p3.Store().Get(0, "k000"); !ok || string(v) != "post-recovery" {
		t.Fatalf("k000 = %q,%v", v, ok)
	}
}

// TestFrameDeltasScaleWithChurn: an incremental snapshot costs what was
// churned, not what the heap holds. A fixed record count on two heap sizes
// at two churn rates gives four delta snapshots; each must stay far under its
// full set and carry lines, 10% churn must outweigh 1% on the same heap, and
// 4x the heap at fixed churn must not double the delta.
func TestFrameDeltasScaleWithChurn(t *testing.T) {
	const records = 2000
	heaps := []int64{8 << 20, 32 << 20}
	churns := []int{1, 10} // percent of the keys rewritten
	params := frame.Params{Compression: frame.CompressFlate}
	val := make([]byte, 100)
	for i := range val {
		val[i] = byte(i)
	}
	type row struct{ full, delta *frame.SnapshotResult }
	rows := map[[2]int64]row{}
	for _, heap := range heaps {
		for _, churn := range churns {
			p, err := NewPool(Config{Shards: 1, Workers: 1, Buckets: 512, HeapBytes: heap})
			if err != nil {
				t.Fatal(err)
			}
			s := p.Store()
			for i := 0; i < records; i++ {
				s.Set(0, fmt.Sprintf("key-%08d", i), val)
			}
			base := filepath.Join(t.TempDir(), "kv.img")
			full, err := p.SnapshotFrames(base, params)
			if err != nil {
				t.Fatal(err)
			}
			churned := records * churn / 100
			for i := 0; i < churned; i++ {
				s.Set(0, fmt.Sprintf("key-%08d", i*(records/churned)), val)
			}
			delta, err := p.SnapshotFrames(base, params)
			if err != nil {
				t.Fatal(err)
			}
			p.Close()
			r := row{full[0], delta[0]}
			if r.delta.Info.Kind != frame.KindDelta {
				t.Fatalf("heap %dMiB churn %d%%: second snapshot is %v, want delta", heap>>20, churn, r.delta.Info.Kind)
			}
			if r.delta.Info.Bytes*4 >= r.full.Info.Bytes {
				t.Errorf("heap %dMiB churn %d%%: delta %d bytes not well under full %d",
					heap>>20, churn, r.delta.Info.Bytes, r.full.Info.Bytes)
			}
			if r.delta.Info.Lines == 0 {
				t.Errorf("heap %dMiB churn %d%%: delta carries no lines", heap>>20, churn)
			}
			rows[[2]int64{heap, int64(churn)}] = r
		}
	}
	for _, heap := range heaps {
		lo, hi := rows[[2]int64{heap, 1}].delta.Info.Bytes, rows[[2]int64{heap, 10}].delta.Info.Bytes
		if hi <= lo {
			t.Errorf("heap %dMiB: 10%% churn delta (%d bytes) not above 1%% churn delta (%d bytes)", heap>>20, hi, lo)
		}
	}
	for _, churn := range churns {
		small, big := rows[[2]int64{heaps[0], int64(churn)}], rows[[2]int64{heaps[1], int64(churn)}]
		if big.full.Info.Bytes <= small.full.Info.Bytes {
			t.Errorf("churn %d%%: full bytes did not grow with the heap (%d -> %d)",
				churn, small.full.Info.Bytes, big.full.Info.Bytes)
		}
		// The delta may wiggle (the bucket layout moves with the heap) but
		// must not scale with the image.
		if big.delta.Info.Bytes > 2*small.delta.Info.Bytes {
			t.Errorf("churn %d%%: delta bytes scaled with heap size (%d -> %d)",
				churn, small.delta.Info.Bytes, big.delta.Info.Bytes)
		}
	}
}

// TestShardFrameDir pins the directory naming.
func TestShardFrameDir(t *testing.T) {
	if got := ShardFrameDir("kv.img", 2); got != "kv-2.fset" {
		t.Fatalf("ShardFrameDir = %q", got)
	}
	if got := ShardFrameDir("/tmp/state/kv.img", 0); got != "/tmp/state/kv-0.fset" {
		t.Fatalf("ShardFrameDir = %q", got)
	}
	if got := ShardFrameDir("snapshot", 3); got != "snapshot-3.fset" {
		t.Fatalf("ShardFrameDir = %q", got)
	}
}
