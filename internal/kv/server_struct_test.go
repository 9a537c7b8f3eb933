package kv

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/wire"
)

// atomicClock is a settable millisecond clock safe to advance while server
// workers read it from other goroutines.
type atomicClock struct{ now atomic.Uint64 }

func (c *atomicClock) read() uint64 { return c.now.Load() }

func newStructServer(t *testing.T, workers int, clk *atomicClock) *Server {
	t.Helper()
	h := pmem.New(pmem.Config{Size: 256 << 20})
	rt, err := core.NewRuntime(h, core.Config{Threads: workers})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRespctStoreOpts(rt, 0, StoreOptions{Buckets: 1024, Structures: true, Clock: clk.read})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerOpts(Gate(s), Options{Workers: workers, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestServerStructText drives every structure verb through the text
// protocol.
func TestServerStructText(t *testing.T) {
	clk := &atomicClock{}
	clk.now.Store(1000)
	srv := newStructServer(t, 2, clk)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Ordered scans.
	for i := 0; i < 10; i++ {
		if err := c.Set(fmt.Sprintf("user%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := c.Scan("user003", "user006", 100)
	if err != nil || len(entries) != 4 || entries[0].Key != "user003" || string(entries[3].Value) != "v6" {
		t.Fatalf("scan = %v, %v", entries, err)
	}
	if entries, err = c.Scan("", "", 3); err != nil || len(entries) != 3 || entries[0].Key != "user000" {
		t.Fatalf("unbounded scan = %v, %v", entries, err)
	}

	// Queues.
	if err := c.QPush("jobs", []byte("job0")); err != nil {
		t.Fatal(err)
	}
	if err := c.QPush("jobs", []byte("job1")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.QPop("jobs"); err != nil || !ok || string(v) != "job0" {
		t.Fatalf("qpop = %q,%v,%v", v, ok, err)
	}
	if v, ok, err := c.QPop("jobs"); err != nil || !ok || string(v) != "job1" {
		t.Fatalf("qpop = %q,%v,%v", v, ok, err)
	}
	if _, ok, err := c.QPop("jobs"); ok || err != nil {
		t.Fatalf("drained qpop = %v,%v", ok, err)
	}

	// Logs.
	for i := 0; i < 4; i++ {
		idx, err := c.LAppend("events", []byte(fmt.Sprintf("e%d", i)))
		if err != nil || idx != uint64(i) {
			t.Fatalf("lappend %d = %d,%v", i, idx, err)
		}
	}
	recs, err := c.LRange("events", 1, 2)
	if err != nil || len(recs) != 2 || string(recs[0]) != "e1" || string(recs[1]) != "e2" {
		t.Fatalf("lrange = %q,%v", recs, err)
	}

	// Type rules surface as WRONGTYPE.
	if _, err := c.LAppend("jobs", []byte("x")); err == nil || !strings.Contains(err.Error(), "WRONGTYPE") {
		t.Fatalf("lappend on queue name = %v", err)
	}
	if err := c.QPush("events", []byte("x")); err == nil || !strings.Contains(err.Error(), "WRONGTYPE") {
		t.Fatalf("qpush on log name = %v", err)
	}

	// TTL lifecycle.
	if ok, err := c.Expire("user001", 500); err != nil || !ok {
		t.Fatalf("expire = %v,%v", ok, err)
	}
	if ms, ok, err := c.TTL("user001"); err != nil || !ok || ms != 500 {
		t.Fatalf("ttl = %d,%v,%v", ms, ok, err)
	}
	if ok, err := c.Expire("nosuch", 500); err != nil || ok {
		t.Fatalf("expire on missing key = %v,%v", ok, err)
	}
	clk.now.Add(500)
	if _, ok, err := c.TTL("user001"); err != nil || ok {
		t.Fatalf("ttl after deadline = %v,%v", ok, err)
	}
	if _, ok, err := c.Get("user001"); err != nil || ok {
		t.Fatalf("expired key still readable: %v,%v", ok, err)
	}

	// MULTI batches.
	res, err := c.Multi([]MultiOp{
		{Verb: "set", Key: "m1", Value: []byte("a")},
		{Verb: "set", Key: "m2", Value: []byte("b")},
		{Verb: "get", Key: "m1"},
		{Verb: "expire", Key: "m2", Ms: 900},
		{Verb: "delete", Key: "nosuch"},
	})
	if err != nil || len(res) != 5 {
		t.Fatalf("multi = %v,%v", res, err)
	}
	if !res[0].Found || !res[1].Found || !res[2].Found || string(res[2].Value) != "a" {
		t.Fatalf("multi results = %+v", res)
	}
	if !res[3].Found || res[4].Found {
		t.Fatalf("multi expire/delete = %+v", res[3:])
	}
	if ms, ok, _ := c.TTL("m2"); !ok || ms != 900 {
		t.Fatalf("ttl set inside multi = %d,%v", ms, ok)
	}
}

// TestServerStructBinary drives every structure opcode through the binary
// protocol.
func TestServerStructBinary(t *testing.T) {
	clk := &atomicClock{}
	clk.now.Store(1000)
	srv := newStructServer(t, 2, clk)
	c, err := DialBinary(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 10; i++ {
		if err := c.Set(fmt.Sprintf("user%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := c.Scan("user003", "user006", 100)
	if err != nil || len(entries) != 4 || entries[0].Key != "user003" || string(entries[3].Value) != "v6" {
		t.Fatalf("scan = %v, %v", entries, err)
	}
	if entries, err = c.Scan("", "", 3); err != nil || len(entries) != 3 {
		t.Fatalf("unbounded scan = %v, %v", entries, err)
	}

	if err := c.QPush("jobs", []byte("job0")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.QPop("jobs"); err != nil || !ok || string(v) != "job0" {
		t.Fatalf("qpop = %q,%v,%v", v, ok, err)
	}
	if _, ok, err := c.QPop("jobs"); ok || err != nil {
		t.Fatalf("drained qpop = %v,%v", ok, err)
	}

	for i := 0; i < 4; i++ {
		idx, err := c.LAppend("events", []byte(fmt.Sprintf("e%d", i)))
		if err != nil || idx != uint64(i) {
			t.Fatalf("lappend %d = %d,%v", i, idx, err)
		}
	}
	recs, err := c.LRange("events", 1, 2)
	if err != nil || len(recs) != 2 || string(recs[0]) != "e1" || string(recs[1]) != "e2" {
		t.Fatalf("lrange = %q,%v", recs, err)
	}
	if recs, err = c.LRange("nolog", 0, 5); err != nil || len(recs) != 0 {
		t.Fatalf("missing log = %q,%v", recs, err)
	}

	if _, err := c.LAppend("jobs", []byte("x")); !errors.Is(err, ErrWrongType) {
		t.Fatalf("lappend on queue name = %v", err)
	}
	if err := c.QPush("events", []byte("x")); !errors.Is(err, ErrWrongType) {
		t.Fatalf("qpush on log name = %v", err)
	}

	if ok, err := c.Expire("user001", 500); err != nil || !ok {
		t.Fatalf("expire = %v,%v", ok, err)
	}
	if ms, ok, err := c.TTL("user001"); err != nil || !ok || ms != 500 {
		t.Fatalf("ttl = %d,%v,%v", ms, ok, err)
	}
	clk.now.Add(500)
	if _, ok, err := c.TTL("user001"); err != nil || ok {
		t.Fatalf("ttl after deadline = %v,%v", ok, err)
	}
	if _, ok, err := c.Get("user001"); err != nil || ok {
		t.Fatalf("expired key still readable: %v,%v", ok, err)
	}
}

// TestServerAtomicFrame checks the FlagAtomic path end to end: a valid
// single-shard batch applies whole, and a batch containing a scan is
// refused whole.
func TestServerAtomicFrame(t *testing.T) {
	clk := &atomicClock{}
	clk.now.Store(1000)
	srv := newStructServer(t, 2, clk)
	c, err := DialBinary(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := c.Queue()
	q.SetAtomic()
	q.Set("a1", []byte("v1"))
	q.Set("a2", []byte("v2"))
	q.Expire("a1", 700)
	q.Get("a2")
	fut, err := c.Send()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait()
	if err != nil || len(res) != 4 {
		t.Fatalf("atomic batch = %v,%v", res, err)
	}
	want := []byte{wire.StatusStored, wire.StatusStored, wire.StatusStored, wire.StatusValue}
	for i, r := range res {
		if r.Status != want[i] {
			t.Fatalf("atomic op %d status = 0x%02x, want 0x%02x", i, r.Status, want[i])
		}
	}
	if string(res[3].Value) != "v2" {
		t.Fatalf("atomic get = %q", res[3].Value)
	}
	if ms, ok, _ := c.TTL("a1"); !ok || ms != 700 {
		t.Fatalf("ttl set in atomic batch = %d,%v", ms, ok)
	}

	// A scan cannot be atomic: the whole frame is refused, nothing executes.
	q = c.Queue()
	q.SetAtomic()
	q.Set("refused", []byte("x"))
	q.Scan("a", "z", 10)
	fut, err = c.Send()
	if err != nil {
		t.Fatal(err)
	}
	res, err = fut.Wait()
	if err != nil || len(res) != 2 {
		t.Fatalf("refused batch = %v,%v", res, err)
	}
	for i, r := range res {
		if r.Status != wire.StatusRefused {
			t.Fatalf("refused op %d status = 0x%02x", i, r.Status)
		}
	}
	if _, ok, _ := c.Get("refused"); ok {
		t.Fatal("refused atomic batch executed its set")
	}
}

// TestServerStructDisabled: structure commands against a store without the
// surface answer the disabled status on both protocols.
func TestServerStructDisabled(t *testing.T) {
	s := newRespctStore(t, 2) // plain persistent store
	srv, err := NewServerOpts(Gate(s), Options{Workers: 2, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	if _, err := tc.Scan("a", "z", 10); err == nil || !strings.Contains(err.Error(), "structures disabled") {
		t.Fatalf("text scan on plain store = %v", err)
	}
	if err := tc.QPush("q", []byte("v")); err == nil || !strings.Contains(err.Error(), "structures disabled") {
		t.Fatalf("text qpush on plain store = %v", err)
	}
	if _, err := tc.Multi([]MultiOp{{Verb: "set", Key: "k", Value: []byte("v")}}); err == nil {
		t.Fatal("text multi on plain store succeeded")
	}
	// The connection survives the errors.
	if err := tc.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	bc, err := DialBinary(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if _, err := bc.Scan("a", "z", 10); err == nil {
		t.Fatal("binary scan on plain store succeeded")
	}
	if err := bc.QPush("q", []byte("v")); !errors.Is(err, ErrStructuresDisabled) {
		t.Fatalf("binary qpush on plain store = %v", err)
	}
	if _, ok, err := bc.Get("k"); err != nil || !ok {
		t.Fatalf("plain get after refusals = %v,%v", ok, err)
	}
}
