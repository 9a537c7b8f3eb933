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

// TestPoolFrameSnapshotRoundTrip drives the snapshot path end to end: a
// full set per shard, churn, a second full set that replaces the first, and
// recovery via OpenPoolFiles from the frame stores.
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
	first, err := p.SnapshotFrames(base, params)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Set(0, fmt.Sprintf("fr%04d", i), []byte("churned"))
	}
	second, err := p.SnapshotFrames(base, params)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()

	// Each store holds the manifest and the second snapshot's full set, which
	// covers the whole image.
	for i, r := range second {
		if r.Name == first[i].Name || r.Info.Lines != first[i].Info.Lines || r.Info.Frames != first[i].Info.Frames {
			t.Fatalf("shard %d: second snapshot %s %+v, first %s %+v", i, r.Name, *r.Info, first[i].Name, *first[i].Info)
		}
		ents, err := os.ReadDir(ShardFrameDir(base, i))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		if len(names) != 2 || names[0] != frame.ManifestName || names[1] != r.Name || !strings.HasPrefix(r.Name, "full-") {
			t.Fatalf("shard %d store holds %v, want %s and %s", i, names, frame.ManifestName, r.Name)
		}
	}

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
