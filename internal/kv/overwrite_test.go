package kv

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
)

// newStructStoreOn builds a structures store with the given worker count on a
// heap of cfg (tests needing chaos or several writers).
func newStructStoreOn(t testing.TB, cfg pmem.Config, threads int) *RespctStore {
	t.Helper()
	rt, err := core.NewRuntime(pmem.New(cfg), core.Config{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRespctStoreOpts(rt, 0, StoreOptions{Buckets: 1024, Structures: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// nodeOf returns the ordered-index handle key's current record carries.
func nodeOf(t *testing.T, s *RespctStore, key string) pmem.Addr {
	t.Helper()
	rec, _, _ := s.find(0, FNV1a(key), key)
	if rec == pmem.NilAddr {
		t.Fatalf("%q has no record", key)
	}
	return s.recNode(rec)
}

// benchKey/benchVal are the benchmark's record shape: 16 B key, 100 B value.
func benchKey(i int) string { return fmt.Sprintf("user%012d", i) }

var benchVal = bytes.Repeat([]byte("v"), 100)

func TestStoreOverwriteKeepsNode(t *testing.T) {
	s := newStructStore(t, &fakeClock{now: 1000})
	s.Set(0, "k", []byte("one"))
	s.Set(0, "neighbour", []byte("n"))
	node := nodeOf(t, s, "k")
	for i := 0; i < 3; i++ {
		s.Set(0, "k", []byte(fmt.Sprintf("again%d", i)))
		if got := nodeOf(t, s, "k"); got != node {
			t.Fatalf("overwrite %d moved the node: %#x -> %#x", i, uint64(node), uint64(got))
		}
	}
	rec, _, _ := s.find(0, FNV1a("k"), "k")
	if key, v := s.ord.At(node); key != "k" || pmem.Addr(v) != rec {
		t.Fatalf("node names %q -> %#x, want k -> %#x", key, v, uint64(rec))
	}
	if got := s.Scan(0, "k", "k", 1); len(got) != 1 || string(got[0].Value) != "again2" {
		t.Fatalf("scan after overwrites = %v", got)
	}
	// Delete drops the handle with the record: a later SET is a fresh key
	// and gets a fresh node (the old one cannot be recycled in this epoch).
	s.Delete(0, "k")
	s.Set(0, "k", []byte("reborn"))
	if got := nodeOf(t, s, "k"); got == node {
		t.Fatalf("delete-then-set reused node %#x", uint64(node))
	}
	if err := s.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreOverwriteClearsTTL(t *testing.T) {
	clk := &fakeClock{now: 1000}
	s := newStructStore(t, clk)
	s.Set(0, "k", []byte("v"))
	s.Set(0, "other", []byte("v"))
	s.Expire(0, "k", 500)
	s.Expire(0, "other", 500)
	if len(s.exp) != 2 {
		t.Fatalf("expiry map holds %d keys, want 2", len(s.exp))
	}
	s.Set(0, "k", []byte("fresh"))
	if _, pending := s.exp["k"]; pending || len(s.exp) != 1 {
		t.Fatalf("SET left the expiry map as %v", s.exp)
	}
	if ms, ok := s.TTL(0, "k"); !ok || ms != 0 {
		t.Fatalf("TTL after SET = %d,%v, want 0,true", ms, ok)
	}
	clk.now += 1000
	if n := s.SweepExpired(0, clk.now); n != 1 {
		t.Fatalf("sweep removed %d keys, want 1 (other)", n)
	}
	if v, ok := s.Get(0, "k"); !ok || string(v) != "fresh" {
		t.Fatalf("overwritten key after its old deadline = %q,%v", v, ok)
	}
	if len(s.exp) != 0 {
		t.Fatalf("expiry map not empty after the sweep: %v", s.exp)
	}
	if err := s.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreOverwriteScanRace: two writers overwrite (and occasionally delete)
// a small key set while a third thread scans. Every value is stamped with its
// key, so a scan that read a record through a stale or foreign node value —
// freed, recycled, or another key's — shows up as a mismatch.
func TestStoreOverwriteScanRace(t *testing.T) {
	const keys, writers = 64, 2
	s := newStructStoreOn(t, pmem.Config{Size: 256 << 20}, writers+1)
	key := func(i int) string { return fmt.Sprintf("race%03d", i) }
	for i := 0; i < keys; i++ {
		s.Set(0, key(i), []byte(key(i)+"#init"))
	}
	rounds := 20000
	if testing.Short() {
		rounds = 4000
	}
	var done atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer done.Add(1)
			for i := 0; i < rounds; i++ {
				k := key((i*7 + w*13) % keys)
				if i%97 == 0 {
					s.Delete(w, k)
				}
				s.Set(w, k, []byte(fmt.Sprintf("%s#%d-%d", k, w, i)))
			}
		}(w)
	}
	scans := 0
	for done.Load() < writers {
		for _, e := range s.Scan(writers, key(scans%keys), "", 16) {
			if !strings.HasPrefix(string(e.Value), e.Key+"#") {
				t.Fatalf("scan returned %q under key %q", e.Value, e.Key)
			}
		}
		scans++
	}
	wg.Wait()
	if scans == 0 {
		t.Fatal("no scan overlapped the writers")
	}
	if err := s.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreOverwriteCrashRecovery: overwrites, a delete-then-set and a fresh
// key die with their epoch on a chaos heap; recovery must roll every node
// value back to the certified record, and the recovered handles must still
// drive overwrites.
func TestStoreOverwriteCrashRecovery(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		s := newStructStoreOn(t, pmem.Config{Size: 64 << 20, Chaos: true, Seed: seed}, 1)
		rt := s.Runtime()
		for i := 0; i < 100; i++ {
			s.Set(0, benchKey(i), []byte("certified"))
		}
		for i := 0; i < 50; i++ { // certified overwrites: the handle was copied once
			s.Set(0, benchKey(i), []byte("certified-again"))
		}
		rt.Thread(0).CheckpointAllow()
		rt.Checkpoint()
		rt.Thread(0).CheckpointPrevent(nil)
		want := s.SnapshotLogical()

		for round := 0; round < 3; round++ {
			for i := 0; i < 100; i += 2 {
				s.Set(0, benchKey(i), []byte(fmt.Sprintf("doomed%d", round)))
			}
		}
		s.Delete(0, benchKey(1))
		s.Set(0, benchKey(1), []byte("doomed-reborn"))
		s.Set(0, "doomed-new", []byte("x"))
		rt.Heap().EvictDirtyFraction(0.5, seed)
		rt.Heap().Crash()

		rt2, _, err := core.Recover(rt.Heap(), core.Config{Threads: 1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := OpenRespctStoreOpts(rt2, 0, StoreOptions{Structures: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.CheckIndexes(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := s2.SnapshotLogical()
		if len(got) != len(want) {
			t.Fatalf("seed %d: recovered %d logical entries, want %d", seed, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("seed %d: entry %q = %q after recovery, want %q", seed, k, got[k], v)
			}
		}
		for i := 0; i < 100; i++ {
			s2.Set(0, benchKey(i), []byte("after"))
		}
		if err := s2.CheckIndexes(); err != nil {
			t.Fatalf("seed %d, after post-recovery overwrites: %v", seed, err)
		}
		if es := s2.Scan(0, "", "", 0); len(es) != 100 || string(es[1].Value) != "after" {
			t.Fatalf("seed %d: post-recovery scan = %d entries", seed, len(es))
		}
	}
}

func TestStoreOverwriteZeroAllocs(t *testing.T) {
	s := newStructStore(t, &fakeClock{now: 1000})
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = benchKey(i)
		s.Set(0, keys[i], benchVal)
	}
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		s.Set(0, keys[i%len(keys)], benchVal)
		i++
	}); n != 0 {
		t.Fatalf("structures-mode overwrite allocates %.0f/op, want 0", n)
	}
}

// TestStoreOverwriteFootprint: the benchmark-shaped record is exactly 256 B
// (64 header + 2x32 cells + 128 raw), so the handle must ride in the record
// as it is — one more word would double its arena class.
func TestStoreOverwriteFootprint(t *testing.T) {
	s := newStructStore(t, &fakeClock{now: 1000})
	s.Set(0, benchKey(0), benchVal)
	arena := s.Runtime().Arena()
	// No checkpoint has run, so nothing is recyclable: an overwrite carves
	// exactly its new record.
	before := arena.Stats().Used
	s.Set(0, benchKey(0), benchVal)
	if got := arena.Stats().Used - before; got != 256 {
		t.Fatalf("a 16 B / 100 B structures record takes %d B of arena, want 256", got)
	}
}

func TestStoreLayoutMismatch(t *testing.T) {
	for _, created := range []bool{false, true} {
		rt, err := core.NewRuntime(pmem.New(pmem.Config{Size: 64 << 20}), core.Config{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewRespctStoreOpts(rt, 0, StoreOptions{Buckets: 64, Structures: created})
		if err != nil {
			t.Fatal(err)
		}
		s.Set(0, "k", []byte("v"))
		if _, err := OpenRespctStoreOpts(rt, 0, StoreOptions{Structures: created}); err != nil {
			t.Fatalf("created structures=%v, reopened the same: %v", created, err)
		}
		if _, err := OpenRespctStoreOpts(rt, 0, StoreOptions{Structures: !created}); !errors.Is(err, ErrLayoutMismatch) {
			t.Fatalf("created structures=%v, opened structures=%v: err = %v, want ErrLayoutMismatch", created, !created, err)
		}
		// An image from before the stamp existed has a zero slot there.
		rt.Sys().Update(rt.RootInCLL(3), 0)
		for _, open := range []bool{false, true} {
			if _, err := OpenRespctStoreOpts(rt, 0, StoreOptions{Structures: open}); !errors.Is(err, ErrLayoutMismatch) {
				t.Fatalf("pre-stamp image opened structures=%v: err = %v, want ErrLayoutMismatch", open, err)
			}
		}
	}
}

func TestCheckIndexesCatchesStalePointers(t *testing.T) {
	build := func() *RespctStore {
		s := newStructStore(t, &fakeClock{now: 1000})
		for i := 0; i < 8; i++ {
			s.Set(0, benchKey(i), benchVal)
		}
		if err := s.CheckIndexes(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	rec := func(s *RespctStore, i int) pmem.Addr {
		r, _, _ := s.find(0, FNV1a(benchKey(i)), benchKey(i))
		return r
	}
	// node -> record: key 3's node points at key 4's record.
	s := build()
	s.ord.SetAt(0, s.recNode(rec(s, 3)), uint64(rec(s, 4)))
	if err := s.CheckIndexes(); err == nil {
		t.Fatal("stale node value not caught")
	}
	// record -> node: key 3's record carries key 4's handle.
	s = build()
	s.rt.Thread(0).StoreTracked(core.CellAux(rec(s, 3), 1), uint64(s.recNode(rec(s, 4))))
	if err := s.CheckIndexes(); err == nil {
		t.Fatal("stale record handle not caught")
	}
	// count: a key the ordered index never heard of.
	s = build()
	s.ord.Remove(0, benchKey(5))
	if err := s.CheckIndexes(); err == nil {
		t.Fatal("missing ordered node not caught")
	}
}
