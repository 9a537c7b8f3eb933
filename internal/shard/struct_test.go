package shard

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/wire"
)

// tickClock is a settable millisecond clock shared by the pool's sweeper
// and the test.
type tickClock struct{ now atomic.Uint64 }

func (c *tickClock) read() uint64 { return c.now.Load() }

func structConfig(shards, workers int, clk *tickClock) Config {
	cfg := testConfig(shards, workers)
	cfg.Structures = true
	cfg.Clock = clk.read
	return cfg
}

// TestPoolStructOps drives the structure surface directly against the pool
// adapter: cross-shard scan merging, name-routed queues and logs, TTL.
func TestPoolStructOps(t *testing.T) {
	clk := &tickClock{}
	clk.now.Store(1000)
	p, err := NewPool(structConfig(4, 2, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Store()
	if !s.Structures() {
		t.Fatal("structures pool reports no surface")
	}

	// Keys scatter over 4 shards; the merged scan must return the global
	// order regardless.
	for i := 0; i < 200; i++ {
		s.Set(0, fmt.Sprintf("user%04d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	got := s.Scan(0, "user0050", "user0059", 100)
	if len(got) != 10 {
		t.Fatalf("merged scan = %d entries, want 10", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("user%04d", 50+i); e.Key != want {
			t.Fatalf("scan[%d] = %q, want %q (merge out of order)", i, e.Key, want)
		}
	}
	if got = s.Scan(0, "", "", 7); len(got) != 7 || got[0].Key != "user0000" {
		t.Fatalf("limited merged scan = %d entries, first %q", len(got), got[0].Key)
	}

	// Queues and logs route by name: two names land wherever the router
	// says, and FIFO/index order holds through the adapter.
	for i := 0; i < 5; i++ {
		if err := s.QPush(0, "jobs", []byte(fmt.Sprintf("job%d", i))); err != nil {
			t.Fatal(err)
		}
		if idx, err := s.LAppend(1, "events", []byte(fmt.Sprintf("e%d", i))); err != nil || idx != uint64(i) {
			t.Fatalf("lappend %d = %d,%v", i, idx, err)
		}
	}
	for i := 0; i < 5; i++ {
		v, ok, err := s.QPop(1, "jobs")
		if err != nil || !ok || string(v) != fmt.Sprintf("job%d", i) {
			t.Fatalf("qpop %d = %q,%v,%v", i, v, ok, err)
		}
	}
	recs, err := s.LRange(0, "events", 2, 2)
	if err != nil || len(recs) != 2 || string(recs[0]) != "e2" {
		t.Fatalf("lrange = %q,%v", recs, err)
	}
	if _, err := s.LAppend(0, "jobs", []byte("x")); !errors.Is(err, kv.ErrWrongType) {
		t.Fatalf("lappend on queue name = %v", err)
	}

	// TTL routes by key; the sweep runs at the checkpoint boundary on every
	// shard's sweeper thread.
	for i := 0; i < 20; i++ {
		if ok := s.Expire(0, fmt.Sprintf("user%04d", i), 500); !ok {
			t.Fatalf("expire user%04d missed", i)
		}
	}
	if ms, ok := s.TTL(0, "user0003"); !ok || ms != 500 {
		t.Fatalf("ttl = %d,%v", ms, ok)
	}
	clk.now.Add(500)
	p.CheckpointAll() // sweeps every shard inside the cut
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("user%04d", i)
		if _, ok := s.Get(0, key); ok {
			t.Fatalf("%s survived the boundary sweep", key)
		}
	}
	if got := s.Scan(0, "", "user0019", 100); len(got) != 0 {
		t.Fatalf("swept keys still scan: %d", len(got))
	}
}

// TestPoolStructAtomicBatch checks the Batcher adapter: a batch lands whole
// on its shard, and BatchShard agrees with the router.
func TestPoolStructAtomicBatch(t *testing.T) {
	clk := &tickClock{}
	clk.now.Store(1000)
	p, err := NewPool(structConfig(4, 1, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Store()

	if s.BatchShard("somekey") != p.ShardFor("somekey") {
		t.Fatal("BatchShard disagrees with the router")
	}
	si := s.BatchShard("batch-a")
	s.Batch(0, si, func(st *kv.RespctStore) {
		st.Set(0, "batch-a", []byte("1"))
		st.PerOp(0)
		st.Set(0, "batch-b", []byte("2")) // same window, same shard store
		st.PerOp(0)
	})
	sh := p.Shard(si)
	if v, ok := sh.KV.Get(0, "batch-a"); !ok || string(v) != "1" {
		t.Fatalf("batch-a on shard %d = %q,%v", si, v, ok)
	}
	if v, ok := sh.KV.Get(0, "batch-b"); !ok || string(v) != "2" {
		t.Fatalf("batch-b on shard %d = %q,%v", si, v, ok)
	}
}

// TestShardedServerStructs serves a structures pool through kv.Server and
// exercises the verbs over both protocols, including the cross-shard MULTI
// refusal that single-store tests cannot reach.
func TestShardedServerStructs(t *testing.T) {
	clk := &tickClock{}
	clk.now.Store(1000)
	p, err := NewPool(structConfig(4, 2, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, err := kv.NewServer(p.Store(), 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Two keys on different shards, two on the same one.
	other := "probe0"
	for i := 1; p.ShardFor(other) == p.ShardFor("pivot"); i++ {
		other = fmt.Sprintf("probe%d", i)
	}
	same := "mate0"
	for i := 1; p.ShardFor(same) != p.ShardFor("pivot"); i++ {
		same = fmt.Sprintf("mate%d", i)
	}

	tc, err := kv.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	for i := 0; i < 40; i++ {
		if err := tc.Set(fmt.Sprintf("srv%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := tc.Scan("srv010", "srv019", 100)
	if err != nil || len(entries) != 10 || entries[0].Key != "srv010" || entries[9].Key != "srv019" {
		t.Fatalf("text scan over shards = %v,%v", entries, err)
	}

	// Same-shard MULTI commits; cross-shard MULTI is refused whole and the
	// connection survives.
	res, err := tc.Multi([]kv.MultiOp{
		{Verb: "set", Key: "pivot", Value: []byte("p")},
		{Verb: "set", Key: same, Value: []byte("s")},
	})
	if err != nil || len(res) != 2 {
		t.Fatalf("same-shard multi = %v,%v", res, err)
	}
	if _, err := tc.Multi([]kv.MultiOp{
		{Verb: "set", Key: "pivot", Value: []byte("x")},
		{Verb: "set", Key: other, Value: []byte("y")},
	}); err == nil || err.Error() != "kv: CLIENT_ERROR cross-shard multi" {
		t.Fatalf("cross-shard multi = %v", err)
	}
	if _, ok, _ := tc.Get(other); ok {
		t.Fatal("refused cross-shard multi executed an op")
	}
	if v, ok, _ := tc.Get("pivot"); !ok || string(v) != "p" {
		t.Fatalf("pivot = %q,%v (refused batch must change nothing)", v, ok)
	}

	// Binary: scan merges across shards; a cross-shard atomic frame answers
	// StatusRefused for every op.
	bc, err := kv.DialBinary(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	bentries, err := bc.Scan("srv010", "srv019", 100)
	if err != nil || len(bentries) != 10 || bentries[0].Key != "srv010" {
		t.Fatalf("binary scan over shards = %v,%v", bentries, err)
	}
	if err := bc.QPush("shardq", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := bc.QPop("shardq"); err != nil || !ok || string(v) != "a" {
		t.Fatalf("binary qpop over shards = %q,%v,%v", v, ok, err)
	}
	q := bc.Queue()
	q.SetAtomic()
	q.Set("pivot", []byte("x"))
	q.Set(other, []byte("y"))
	fut, err := bc.Send()
	if err != nil {
		t.Fatal(err)
	}
	bres, err := fut.Wait()
	if err != nil || len(bres) != 2 {
		t.Fatalf("cross-shard atomic = %v,%v", bres, err)
	}
	for i, r := range bres {
		if r.Status != wire.StatusRefused {
			t.Fatalf("cross-shard atomic op %d status = 0x%02x", i, r.Status)
		}
	}
	if v, ok, _ := bc.Get("pivot"); !ok || string(v) != "p" {
		t.Fatalf("pivot after refused atomic = %q,%v", v, ok)
	}

	// Same-shard atomic frame applies.
	q = bc.Queue()
	q.SetAtomic()
	q.Set("pivot", []byte("p2"))
	q.Set(same, []byte("s2"))
	fut, err = bc.Send()
	if err != nil {
		t.Fatal(err)
	}
	if bres, err = fut.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, r := range bres {
		if r.Status != wire.StatusStored {
			t.Fatalf("same-shard atomic op %d status = 0x%02x", i, r.Status)
		}
	}
	if v, ok, _ := bc.Get(same); !ok || string(v) != "s2" {
		t.Fatalf("same-shard atomic result = %q,%v", v, ok)
	}
}

// TestPoolStructRecovery crashes a structures pool mid-epoch and checks
// that scans, queues, logs and TTLs all roll back to the last completed
// checkpoint on every shard.
func TestPoolStructRecovery(t *testing.T) {
	clk := &tickClock{}
	clk.now.Store(1000)
	cfg := structConfig(3, 1, clk)
	cfg.Chaos = true
	cfg.Seed = 11
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Store()

	for i := 0; i < 120; i++ {
		s.Set(0, fmt.Sprintf("key%04d", i), []byte("stable"))
	}
	s.Expire(0, "key0007", 5000)
	for i := 0; i < 4; i++ {
		s.QPush(0, "q", []byte(fmt.Sprintf("item%d", i)))
		s.LAppend(0, "l", []byte(fmt.Sprintf("rec%d", i)))
	}
	s.QPop(0, "q")
	p.CheckpointAll()
	want := s.SnapshotLogical()

	// Doomed epoch touching every command family on every shard, then a
	// crash with half the dirty lines evicted.
	for i := 0; i < 120; i += 10 {
		s.Set(0, fmt.Sprintf("key%04d", i), []byte("doomed"))
	}
	s.QPush(0, "q", []byte("doomed"))
	s.LAppend(0, "l", []byte("doomed"))
	s.Expire(0, "key0011", 1)
	s.QPush(0, "q2", []byte("doomed-new-queue"))
	p.Close()
	heaps := make([]*pmem.Heap, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		h := p.Shard(i).Heap
		h.EvictDirtyFraction(0.5, int64(99+i))
		h.Crash()
		heaps[i] = h
	}

	p2, _, err := Recover(cfg, heaps)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	s2 := p2.Store()
	got := s2.SnapshotLogical()
	if len(got) != len(want) {
		t.Fatalf("recovered %d logical entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %q = %q after recovery, want %q", k, got[k], v)
		}
	}
	// The recovered pool still serves every family.
	if v, ok, err := s2.QPop(0, "q"); err != nil || !ok || string(v) != "item1" {
		t.Fatalf("recovered qpop = %q,%v,%v", v, ok, err)
	}
	if recs, err := s2.LRange(0, "l", 0, 10); err != nil || len(recs) != 4 {
		t.Fatalf("recovered log = %d records,%v", len(recs), err)
	}
	if got := s2.Scan(0, "key0000", "key9999", 1000); len(got) != 120 {
		t.Fatalf("recovered scan = %d entries, want 120", len(got))
	}
	// The recovered expiry map still drives the boundary sweep.
	clk.now.Add(5000)
	p2.CheckpointAll()
	if _, ok := s2.Get(0, "key0007"); ok {
		t.Fatal("key0007 survived its recovered deadline")
	}
}
