package shard

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestCleanRestartsDoNotLeak: overwrite churn, a frame snapshot and a
// restart from it, cycle after cycle, must not grow the arena. The blocks
// each cycle frees sit in worker magazines; the snapshot returns them to the
// persistent free lists, so the next cycle recycles them instead of carving.
func TestCleanRestartsDoNotLeak(t *testing.T) {
	const keys, cycles = 300, 4
	base := filepath.Join(t.TempDir(), "kv.img")
	cfg := testConfig(2, 1)
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	overwrite := func(cycle int) {
		s := p.Store()
		for i := 0; i < keys; i++ {
			s.Set(0, fmt.Sprintf("leak%04d", i), []byte(fmt.Sprintf("cycle%d-%04d", cycle, i)))
		}
	}
	overwrite(-1) // the load; cycle 0 below is the first overwrite
	var used []int64
	for c := 0; c < cycles; c++ {
		overwrite(c)
		if _, err := p.SnapshotFrames(base, frame.Params{}); err != nil {
			t.Fatal(err)
		}
		p.Close()
		if p, _, err = OpenPoolFiles(cfg, base); err != nil {
			t.Fatal(err)
		}
		var u int64
		for i := 0; i < p.NumShards(); i++ {
			u += p.Shard(i).RT.Arena().Stats().Used
		}
		used = append(used, u)
		if v, ok := p.Store().Get(0, "leak0007"); !ok || string(v) != fmt.Sprintf("cycle%d-0007", c) {
			t.Fatalf("cycle %d: leak0007 = %q, %v", c, v, ok)
		}
	}
	p.Close()
	for c := 1; c < cycles; c++ {
		if used[c] != used[0] {
			t.Fatalf("arena bytes in use after each clean restart: %v — freed blocks leak", used)
		}
	}
}

// churnOp is one operation of a snapshot-race worker: a set of seq (or a
// delete when del), bracketed by the key's shard epoch read before and after.
type churnOp struct {
	key    string
	seq    int
	del    bool
	e0, e1 uint64
}

// TestSnapshotUnderCheckpoints: frame snapshots taken while a 1 ms driver
// checkpoints the shards and two workers churn must each restore to a state
// a checkpoint certified. Each set is restored and recovered; its indexes
// must agree, and every worker's keys on a shard must hold the effect of a
// prefix of that worker's operations there which includes every operation
// known to precede the set's epoch and none known to follow it. A commit
// while a set is encoded could make a block the live view elided live again,
// which this would catch as a wrong or torn value.
func TestSnapshotUnderCheckpoints(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			testSnapshotUnderCheckpoints(t, async)
		})
	}
}

func testSnapshotUnderCheckpoints(t *testing.T, async bool) {
	const workers, keys, sets = 2, 48, 6
	dir := t.TempDir()
	cfg := Config{Shards: 2, Workers: workers, Buckets: 256, HeapBytes: 16 << 20,
		Interval: time.Millisecond, Async: async, Structures: true}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	store := p.Store()
	logs := make([][]churnOp, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer store.ThreadExit(w)
			for seq := 1; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				op := churnOp{key: fmt.Sprintf("w%d-%02d", w, seq%keys), seq: seq, del: seq%7 == 3}
				rt := p.Shard(p.ShardFor(op.key)).RT
				op.e0 = rt.Epoch()
				if op.del {
					store.Delete(w, op.key)
				} else {
					store.Set(w, op.key, churnValue(w, seq))
				}
				op.e1 = rt.Epoch()
				logs[w] = append(logs[w], op)
				// Freed blocks recycle only once a checkpoint commits: let
				// the 1 ms driver run even on a loaded host.
				if seq%64 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	for k := 0; k < sets; k++ {
		time.Sleep(3 * time.Millisecond)
		if _, err := p.SnapshotFrames(filepath.Join(dir, fmt.Sprintf("set%d.img", k)), frame.Params{FrameBytes: 1 << 16}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	p.Close()

	recCfg := cfg
	recCfg.Interval = 0
	midway := 0
	for k := 0; k < sets; k++ {
		p2, rep, err := OpenPoolFiles(recCfg, filepath.Join(dir, fmt.Sprintf("set%d.img", k)))
		if err != nil {
			t.Fatalf("set %d: %v", k, err)
		}
		for i := 0; i < p2.NumShards(); i++ {
			sh := p2.Shard(i)
			if err := sh.KV.CheckIndexes(); err != nil {
				t.Fatalf("set %d shard %d: %v", k, i, err)
			}
			got := sh.KV.SnapshotLogical()
			for w := 0; w < workers; w++ {
				n, total, err := checkPrefix(logs[w], got, w, i, rep.PerShard[i].FailedEpoch, p2)
				if err != nil {
					t.Fatalf("set %d shard %d worker %d: %v", k, i, w, err)
				}
				if n > 0 && n < total {
					midway++
				}
			}
		}
		p2.Close()
	}
	if midway == 0 {
		t.Fatal("no set caught a worker mid-run: the snapshots checked nothing")
	}
}

// churnValue is worker w's value for operation seq; its length varies so the
// records spread over several size classes.
func churnValue(w, seq int) []byte {
	return []byte(fmt.Sprintf("w%d-%d-%s", w, seq, strings.Repeat("x", seq%150)))
}

// checkPrefix finds a prefix of worker w's operations on shard sh whose
// effect equals got on w's keys there, with every operation whose epoch is
// surely below epoch inside the prefix and every one surely at or above it
// outside. It returns the prefix length and the operation count.
func checkPrefix(log []churnOp, got map[string]string, w, sh int, epoch uint64, p *Pool) (int, int, error) {
	var ops []churnOp
	for _, op := range log {
		if p.ShardFor(op.key) == sh {
			ops = append(ops, op)
		}
	}
	lo := 0 // ops[:lo] surely precede the cut
	for lo < len(ops) && ops[lo].e1 < epoch {
		lo++
	}
	hi := lo // ops[hi:] surely follow it
	for hi < len(ops) && ops[hi].e0 < epoch {
		hi++
	}
	want := map[string]string{}
	apply := func(op churnOp) {
		if op.del {
			delete(want, op.key)
		} else {
			want[op.key] = string(churnValue(w, op.seq))
		}
	}
	for _, op := range ops[:lo] {
		apply(op)
	}
	mine := map[string]string{}
	prefix := fmt.Sprintf("w%d-", w)
	for k, v := range got {
		if strings.HasPrefix(k, prefix) {
			mine[k] = v
		}
	}
	for n := lo; ; n++ {
		if maps.Equal(want, mine) {
			return n, len(ops), nil
		}
		if n == hi {
			return 0, 0, fmt.Errorf("recovered %d keys match no prefix of %d ops in [%d,%d] at epoch %d", len(mine), len(ops), lo, hi, epoch)
		}
		apply(ops[n])
	}
}
