package kv

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/telemetry"
)

// TestServerRefusesEmptyPool: with no store thread to lease, every request
// would wait forever, so the server is refused before it listens.
func TestServerRefusesEmptyPool(t *testing.T) {
	h := pmem.New(pmem.DRAMConfig(1 << 20))
	for _, n := range []int{0, -1} {
		if srv, err := NewServerOpts(NewTransientStore(h), Options{Workers: n, Addr: "127.0.0.1:0"}); err == nil {
			srv.Close()
			t.Fatalf("Workers %d: server started", n)
		}
	}
}

// slowSetStore holds every Set for d, so the thread it runs on stays leased
// while its goroutine sleeps and other connections must queue for a lease.
type slowSetStore struct {
	Store
	d time.Duration
}

func (s slowSetStore) Set(th int, key string, value []byte) {
	time.Sleep(s.d)
	s.Store.Set(th, key, value)
}

// pairClient is one set-then-get round trip over either protocol: a text
// client takes two leases for it, a binary client one frame and one lease.
type pairClient interface {
	setGet(key string, value []byte) error
	Close() error
}

type textPair struct{ *Client }

func (c textPair) setGet(key string, value []byte) error {
	if err := c.Set(key, value); err != nil {
		return err
	}
	if v, ok, err := c.Get(key); err != nil || !ok || string(v) != string(value) {
		return fmt.Errorf("text get %s = %q, %v, %v", key, v, ok, err)
	}
	return nil
}

type binaryPair struct{ *BinaryClient }

func (c binaryPair) setGet(key string, value []byte) error {
	q := c.Queue()
	q.Set(key, value)
	q.Get(key)
	fut, err := c.Send()
	if err != nil {
		return err
	}
	res, err := fut.Wait()
	if err != nil || len(res) != 2 || string(res[1].Value) != string(value) {
		return fmt.Errorf("binary set+get %s = %+v, %v", key, res, err)
	}
	return nil
}

func dialPair(addr string, binary bool) (pairClient, error) {
	if binary {
		c, err := DialBinary(addr, 1)
		return binaryPair{c}, err
	}
	c, err := Dial(addr)
	return textPair{c}, err
}

// TestServerLeaseFairness runs many more connections than store threads —
// half text, half binary — over a store whose sets hold their lease for
// 50 µs, so nearly every request queues. Every connection must complete its
// round trips, and none may be starved while the others progress: when half
// of all round trips are done, the slowest connection has done a share of
// its own. The lease-wait histogram must have seen the queue.
func TestServerLeaseFairness(t *testing.T) {
	conns, rounds := 512, 16
	if testing.Short() {
		conns = 64
	}
	h := pmem.New(pmem.DRAMConfig(64 << 20))
	reg := telemetry.NewRegistry()
	srv, err := NewServerOpts(slowSetStore{NewTransientStore(h), 50 * time.Microsecond},
		Options{Workers: 2, Addr: "127.0.0.1:0", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clients := make([]pairClient, conns)
	for i := range clients {
		if clients[i], err = dialPair(srv.Addr(), i%2 == 1); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
		// One round trip before the measured run: a connection still being
		// accepted is not a starved one.
		if err := clients[i].setGet(fmt.Sprintf("c%d-warm", i), []byte("w")); err != nil {
			t.Fatal(err)
		}
	}

	progress := make([]atomic.Int32, conns)
	var total atomic.Int64
	half := int64(conns * rounds / 2)
	var atHalf []int32 // every connection's progress when half the work was done
	start := make(chan struct{})
	errs := make(chan error, conns)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for n := 0; n < rounds; n++ {
				if err := clients[i].setGet(fmt.Sprintf("c%d-k%d", i, n%4), []byte(fmt.Sprintf("v%d", n))); err != nil {
					errs <- fmt.Errorf("connection %d round %d: %w", i, n, err)
					return
				}
				progress[i].Add(1)
				if total.Add(1) == half {
					atHalf = make([]int32, conns)
					for j := range progress {
						atHalf[j] = progress[j].Load()
					}
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range progress {
		if n := progress[i].Load(); n != int32(rounds) {
			t.Fatalf("connection %d completed %d of %d round trips", i, n, rounds)
		}
	}
	slices.Sort(atHalf)
	t.Logf("%d connections, round trips done per connection at half-time: min %d, median %d, max %d",
		conns, atHalf[0], atHalf[conns/2], atHalf[conns-1])
	if atHalf[0] < int32(rounds/8) {
		t.Fatalf("a connection had done %d of %d round trips when all connections together had done half of theirs: starved",
			atHalf[0], rounds)
	}

	wait := reg.Histogram("respct_kv_lease_wait_ns", "", nil).Snapshot()
	leases := uint64(conns / 2 * (1 + rounds) * 3) // text: 2 leases per round trip, binary: 1
	if wait.Count != leases || wait.Quantile(0.5) < uint64(10*time.Microsecond) {
		t.Fatalf("lease wait: %d observations (want %d), median %d ns: the queue was not seen", wait.Count, leases, wait.Quantile(0.5))
	}
}

// TestServerCloseDuringCheckpoints closes a server while text and binary
// connections keep it busy and a goroutine forces checkpoints back to back,
// so leased threads keep parking in the checkpoint wait. Close must return,
// and every SET a client saw acknowledged must be in the store afterwards.
func TestServerCloseDuringCheckpoints(t *testing.T) {
	rt, err := core.NewRuntime(pmem.New(pmem.Config{Size: 32 << 20}), core.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRespctStore(rt, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	g := Gate(s)
	srv, err := NewServer(g, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	stopCkpt := make(chan struct{})
	var ckpts atomic.Int64
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for {
			select {
			case <-stopCkpt:
				return
			default:
			}
			rt.Checkpoint()
			ckpts.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const clients = 8
	acked := make([][]string, clients)
	var total atomic.Int64
	busy := make(chan struct{}) // closed at the 200th acknowledged SET
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl, err := dialPair(srv.Addr(), c%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer cl.Close()
			for n := 0; ; n++ {
				key := fmt.Sprintf("c%d-%d", c, n)
				if cl.setGet(key, []byte(key)) != nil {
					return // the server closed the connection
				}
				acked[c] = append(acked[c], key)
				if total.Add(1) == 200 {
					close(busy)
				}
			}
		}(c)
	}
	select {
	case <-busy:
	case <-time.After(30 * time.Second):
		t.Fatalf("only %d SETs acknowledged under back-to-back checkpoints", total.Load())
	}
	if ckpts.Load() == 0 {
		t.Fatal("no checkpoint ran during the traffic")
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close hung on busy connections under back-to-back checkpoints")
	}
	wg.Wait()
	close(stopCkpt)
	<-ckptDone

	n := 0
	for c := range acked {
		for _, key := range acked[c] {
			if v, ok := g.Get(0, key); !ok || string(v) != key {
				t.Fatalf("acknowledged SET %s reads %q, %v after Close", key, v, ok)
			}
			n++
		}
	}
	t.Logf("%d acknowledged SETs readable, %d checkpoints", n, ckpts.Load())
}
