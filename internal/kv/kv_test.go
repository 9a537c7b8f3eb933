package kv

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/frame"
	"github.com/respct/respct/internal/pmem"
)

func newRespctStore(t testing.TB, threads int) *RespctStore {
	t.Helper()
	h := pmem.New(pmem.Config{Size: 256 << 20})
	rt, err := core.NewRuntime(h, core.Config{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRespctStore(rt, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func storeBattery(t *testing.T, s Store) {
	t.Helper()
	if _, ok := s.Get(0, "absent"); ok {
		t.Fatal("empty store hit")
	}
	s.Set(0, "alpha", []byte("one"))
	s.Set(0, "beta", []byte("two"))
	if v, ok := s.Get(0, "alpha"); !ok || string(v) != "one" {
		t.Fatalf("alpha = %q,%v", v, ok)
	}
	s.Set(0, "alpha", []byte("uno-updated-longer-value"))
	if v, ok := s.Get(0, "alpha"); !ok || string(v) != "uno-updated-longer-value" {
		t.Fatalf("alpha after update = %q,%v", v, ok)
	}
	if !s.Delete(0, "beta") {
		t.Fatal("delete failed")
	}
	if s.Delete(0, "beta") {
		t.Fatal("double delete")
	}
	if _, ok := s.Get(0, "beta"); ok {
		t.Fatal("deleted key present")
	}
	// Many keys, 100-byte values (the paper's value size).
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 500; i++ {
		s.Set(0, fmt.Sprintf("user%012d", i), val)
	}
	for i := 0; i < 500; i++ {
		if v, ok := s.Get(0, fmt.Sprintf("user%012d", i)); !ok || len(v) != 100 {
			t.Fatalf("key %d: %d bytes, %v", i, len(v), ok)
		}
	}
}

func TestRespctStoreBattery(t *testing.T) {
	storeBattery(t, newRespctStore(t, 1))
}

func TestTransientStoreBattery(t *testing.T) {
	h := pmem.New(pmem.DRAMConfig(128 << 20))
	storeBattery(t, NewTransientStore(h))
}

func TestRespctStoreCrashRecovery(t *testing.T) {
	s := newRespctStore(t, 1)
	rt := s.Runtime()
	val := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 200; i++ {
		s.Set(0, fmt.Sprintf("key%06d", i), val)
	}
	rt.Thread(0).CheckpointAllow()
	rt.Checkpoint()
	rt.Thread(0).CheckpointPrevent(nil)

	// Doomed epoch: overwrites, deletes, inserts.
	for i := 0; i < 100; i++ {
		s.Set(0, fmt.Sprintf("key%06d", i), []byte("doomed"))
	}
	for i := 100; i < 150; i++ {
		s.Delete(0, fmt.Sprintf("key%06d", i))
	}
	s.Set(0, "newkey", val)
	rt.Heap().EvictDirtyFraction(0.5, 99)
	rt.Heap().Crash()

	rt2, _, err := core.Recover(rt.Heap(), core.Config{Threads: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenRespctStore(rt2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, ok := s2.Get(0, fmt.Sprintf("key%06d", i))
		if !ok || !bytes.Equal(v, val) {
			t.Fatalf("key %d after recovery: %q,%v", i, v, ok)
		}
	}
	if _, ok := s2.Get(0, "newkey"); ok {
		t.Fatal("doomed-epoch key survived")
	}
	if got := s2.Count(); got != 200 {
		t.Fatalf("recovered %d keys, want 200", got)
	}
}

func TestRespctStoreHashChains(t *testing.T) {
	// Force many keys through few stripes to exercise chain walking; keys
	// are distinct strings so collisions at the map layer are what matters.
	s := newRespctStore(t, 1)
	for i := 0; i < 300; i++ {
		s.Set(0, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < 300; i++ {
		if v, ok := s.Get(0, fmt.Sprintf("k%d", i)); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q,%v", i, v, ok)
		}
	}
	for i := 0; i < 300; i += 2 {
		if !s.Delete(0, fmt.Sprintf("k%d", i)) {
			t.Fatalf("delete k%d", i)
		}
	}
	for i := 1; i < 300; i += 2 {
		if _, ok := s.Get(0, fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d lost", i)
		}
	}
}

func TestServerEndToEnd(t *testing.T) {
	s := newRespctStore(t, 4)
	ck := s.Runtime().StartCheckpointer(10 * time.Millisecond)
	srv, err := NewServer(Gate(s), 4, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		ck.Stop()
	}()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set("hello", []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("hello")
	if err != nil || !ok || string(v) != "world" {
		t.Fatalf("get = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := c.Get("missing"); ok {
		t.Fatal("missing key found")
	}
	del, err := c.Delete("hello")
	if err != nil || !del {
		t.Fatalf("delete = %v,%v", del, err)
	}
	if del, _ := c.Delete("hello"); del {
		t.Fatal("double delete over protocol")
	}
}

func TestServerManyClients(t *testing.T) {
	s := newRespctStore(t, 4)
	ck := s.Runtime().StartCheckpointer(5 * time.Millisecond)
	srv, err := NewServer(Gate(s), 4, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		ck.Stop()
	}()

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("c%dk%d", c, i)
				if err := cl.Set(key, []byte(key+"-value")); err != nil {
					t.Error(err)
					return
				}
				v, ok, err := cl.Get(key)
				if err != nil || !ok || string(v) != key+"-value" {
					t.Errorf("get %s = %q,%v,%v", key, v, ok, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestServerRejectsBadCommands(t *testing.T) {
	h := pmem.New(pmem.DRAMConfig(64 << 20))
	srv, err := NewServer(NewTransientStore(h), 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c.w, "bogus command\r\n")
	c.w.Flush()
	line, err := c.r.ReadString('\n')
	if err != nil || line != "ERROR\r\n" {
		t.Fatalf("bad command reply %q, %v", line, err)
	}
	// Connection still usable afterwards.
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// TestServerSnapshotRecoveryRoundTrip drives the full kvserver lifecycle:
// clients write over TCP, the state is checkpointed and snapshotted to a
// buffer, and a second "process" (fresh runtime from the snapshot) recovers
// and serves the same data.
func TestServerSnapshotRecoveryRoundTrip(t *testing.T) {
	s := newRespctStore(t, 2)
	rt := s.Runtime()
	rt.CheckpointIdle()
	srv, err := NewServer(Gate(s), 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Set(fmt.Sprintf("snap%04d", i), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	srv.Close()
	rt.CheckpointIdle() // make the writes durable before snapshotting

	var img bytes.Buffer
	if _, err := frame.WriteFull(&img, frame.HeapSource{H: rt.Heap()}, frame.Params{}); err != nil {
		t.Fatal(err)
	}

	// "Second process": open the image, recover, reattach, serve.
	sink := &frame.HeapSink{Config: pmem.NVMMConfig(0)}
	if _, err := frame.RestoreInto(sink, bytes.NewReader(img.Bytes()), int64(img.Len()), 0); err != nil {
		t.Fatal(err)
	}
	h2, err := sink.Heap()
	if err != nil {
		t.Fatal(err)
	}
	rt2, _, err := core.Recover(h2, core.Config{Threads: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenRespctStore(rt2, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(Gate(s2), 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	c2, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 100; i++ {
		v, ok, err := c2.Get(fmt.Sprintf("snap%04d", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("key %d after process restart: %q,%v,%v", i, v, ok, err)
		}
	}
}
