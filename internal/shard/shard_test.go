package shard

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/respct/respct/internal/frame"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
)

func testConfig(shards, workers int) Config {
	return Config{
		Shards:    shards,
		Workers:   workers,
		Buckets:   1 << 10,
		HeapBytes: 16 << 20,
	}
}

func TestRouteDeterministicAndBalanced(t *testing.T) {
	const shards = 4
	counts := make([]int, shards)
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("user%012d", i)
		s := Route(key, shards)
		if s2 := Route(key, shards); s2 != s {
			t.Fatalf("Route(%q) not deterministic: %d then %d", key, s, s2)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n < 20000/shards/2 {
			t.Fatalf("shard %d got %d of 20000 keys — router is skewed: %v", s, n, counts)
		}
	}
	if Route("anything", 1) != 0 {
		t.Fatal("single-shard routing must be 0")
	}
}

func TestPoolStoreBattery(t *testing.T) {
	p, err := NewPool(testConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Store()

	if _, ok := s.Get(0, "absent"); ok {
		t.Fatal("empty store hit")
	}
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 500; i++ {
		s.Set(0, fmt.Sprintf("user%012d", i), val)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("user%012d", i)
		if v, ok := s.Get(0, key); !ok || !bytes.Equal(v, val) {
			t.Fatalf("key %s: %d bytes, %v", key, len(v), ok)
		}
	}
	s.Set(0, "alpha", []byte("one"))
	s.Set(0, "alpha", []byte("a-longer-replacement-value"))
	if v, ok := s.Get(0, "alpha"); !ok || string(v) != "a-longer-replacement-value" {
		t.Fatalf("alpha = %q,%v", v, ok)
	}
	if !s.Delete(0, "alpha") || s.Delete(0, "alpha") {
		t.Fatal("delete/double-delete broken")
	}

	// Keys live on the shard the router names and nowhere else.
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("user%012d", i)
		home := p.ShardFor(key)
		for si := 0; si < p.NumShards(); si++ {
			_, ok := p.Shard(si).KV.Get(0, key)
			if ok != (si == home) {
				t.Fatalf("key %s present=%v on shard %d, home %d", key, ok, si, home)
			}
		}
	}
}

func TestPoolStaggeredCheckpointsUnderLoad(t *testing.T) {
	cfg := testConfig(4, 2)
	cfg.Interval = 5 * time.Millisecond
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	s := p.Store()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for th := 0; th < cfg.Workers; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					s.ThreadExit(th)
					return
				default:
				}
				key := fmt.Sprintf("w%dk%d", th, i%500)
				s.Set(th, key, []byte("value"))
				if i%3 == 0 {
					s.Get(th, key)
				}
			}
		}(th)
	}
	time.Sleep(120 * time.Millisecond)
	close(stop)
	wg.Wait()
	p.Close()

	st := p.Stats()
	// The driver checkpoints one shard per 5 ms tick, so in 120 ms the
	// round-robin should have visited every shard several times (loose
	// lower bound for slow CI).
	if st.Checkpoints < uint64(p.NumShards()) {
		t.Fatalf("only %d checkpoints across %d shards", st.Checkpoints, p.NumShards())
	}
	if st.MaxPause <= 0 {
		t.Fatal("driver recorded no pause")
	}
}

// TestPoolOpenRefusesOtherLayout: stores written with one -structures
// setting must not be misread under the other.
func TestPoolOpenRefusesOtherLayout(t *testing.T) {
	for _, structures := range []bool{false, true} {
		base := filepath.Join(t.TempDir(), "kv.img")
		cfg := testConfig(2, 1)
		cfg.Structures = structures
		p, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Store().Set(0, "k", []byte("v"))
		if _, err := p.SnapshotFrames(base, frame.Params{}); err != nil {
			t.Fatal(err)
		}
		p.Close()
		cfg.Structures = !structures
		if _, _, err := OpenPoolFiles(cfg, base); !errors.Is(err, kv.ErrLayoutMismatch) {
			t.Fatalf("written structures=%v, opened structures=%v: err = %v, want kv.ErrLayoutMismatch", structures, !structures, err)
		}
	}
}

func TestPoolCrashRollsBackDoomedEpoch(t *testing.T) {
	cfg := testConfig(4, 1)
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Store()
	val := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 200; i++ {
		s.Set(0, fmt.Sprintf("key%06d", i), val)
	}
	p.CheckpointAll() // certify

	// Doomed epoch on every shard: overwrites, deletes, inserts.
	for i := 0; i < 100; i++ {
		s.Set(0, fmt.Sprintf("key%06d", i), []byte("doomed"))
	}
	for i := 100; i < 150; i++ {
		s.Delete(0, fmt.Sprintf("key%06d", i))
	}
	s.Set(0, "newkey", val)
	p.Close()

	// Crash every shard with half its dirty lines already evicted to NVMM.
	heaps := make([]*pmem.Heap, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		h := p.Shard(i).Heap
		h.EvictDirtyFraction(0.5, int64(99+i))
		h.Crash()
		heaps[i] = h
	}

	p2, rep, err := Recover(cfg, heaps)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rep.CellsRolledBack == 0 {
		t.Fatalf("doomed epoch rolled nothing back: %+v", rep)
	}
	s2 := p2.Store()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key%06d", i)
		if v, ok := s2.Get(0, key); !ok || !bytes.Equal(v, val) {
			t.Fatalf("key %s after recovery: %q,%v", key, v, ok)
		}
	}
	if _, ok := s2.Get(0, "newkey"); ok {
		t.Fatal("doomed-epoch key survived")
	}
	if got := len(s2.SnapshotLogical()); got != 200 {
		t.Fatalf("recovered %d keys, want 200", got)
	}
}

// TestServerServesShardedStore runs kv.Server over a sharded pool end to end
// across TCP with concurrent clients and the staggered checkpointer live.
func TestServerServesShardedStore(t *testing.T) {
	cfg := testConfig(4, 4)
	cfg.Interval = 5 * time.Millisecond
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	srv, err := kv.NewServer(p.Store(), cfg.Workers, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		p.Close()
	}()

	const clients = 6
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := kv.Dial(srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 60; i++ {
				key := fmt.Sprintf("c%dk%d", c, i)
				if err := cl.Set(key, []byte(key+"-value")); err != nil {
					errCh <- err
					return
				}
				v, ok, err := cl.Get(key)
				if err != nil || !ok || string(v) != key+"-value" {
					errCh <- fmt.Errorf("get %s = %q,%v,%v", key, v, ok, err)
					return
				}
				if i%7 == 0 {
					if _, err := cl.Delete(key); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
