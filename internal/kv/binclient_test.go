package kv

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/respct/respct/internal/telemetry"
	"github.com/respct/respct/internal/wire"
)

func TestBinaryClientSync(t *testing.T) {
	srv := newTransientServer(t, 2)
	c, err := DialBinary(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set("alpha", []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("alpha")
	if err != nil || !ok || string(v) != "one" {
		t.Fatalf("get = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := c.Get("missing"); ok {
		t.Fatal("missing key found")
	}
	if existed, err := c.Delete("alpha"); err != nil || !existed {
		t.Fatalf("delete = %v,%v", existed, err)
	}
	if existed, _ := c.Delete("alpha"); existed {
		t.Fatal("second delete reported the key as live")
	}
	if err := c.Set("big", bytes.Repeat([]byte("x"), maxValueBytes+1)); err == nil {
		t.Fatal("oversized set succeeded")
	}
	// The same connection keeps working after a refused op: remaining batch
	// ops still execute and the stream stays framed.
	if err := c.Set("after", []byte("refusal")); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryClientPipelined keeps several multi-op batches in flight and
// checks every result lands on the right future in the right order.
func TestBinaryClientPipelined(t *testing.T) {
	srv := newTransientServer(t, 2)
	c, err := DialBinary(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const batches = 8
	const depth = 16
	futs := make([]*Future, batches)
	for b := 0; b < batches; b++ {
		q := c.Queue()
		for i := 0; i < depth; i++ {
			q.Set(fmt.Sprintf("b%d-k%d", b, i), []byte(fmt.Sprintf("v%d-%d", b, i)))
			q.Get(fmt.Sprintf("b%d-k%d", b, i))
		}
		if futs[b], err = c.Send(); err != nil {
			t.Fatal(err)
		}
	}
	for b, fut := range futs {
		res, err := fut.Wait()
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if len(res) != 2*depth {
			t.Fatalf("batch %d: %d results", b, len(res))
		}
		for i := 0; i < depth; i++ {
			if res[2*i].Status != wire.StatusStored {
				t.Fatalf("batch %d set %d: status 0x%02x", b, i, res[2*i].Status)
			}
			want := fmt.Sprintf("v%d-%d", b, i)
			if got := res[2*i+1]; got.Status != wire.StatusValue || string(got.Value) != want {
				t.Fatalf("batch %d get %d = 0x%02x %q, want %q", b, i, got.Status, got.Value, want)
			}
		}
	}
}

// TestProtocolNegotiation checks that one server answers both protocols, each
// connection in the protocol of its first byte: a text SET is visible to a
// binary GET and the other way round.
func TestProtocolNegotiation(t *testing.T) {
	srv := newTransientServer(t, 2)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc, err := DialBinary(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()

	if err := c.Set("t", []byte("from-text")); err != nil {
		t.Fatal(err)
	}
	if err := bc.Set("b", []byte("from-binary")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := bc.Get("t"); err != nil || !ok || string(v) != "from-text" {
		t.Fatalf("binary get t = %q,%v,%v", v, ok, err)
	}
	if v, ok, err := c.Get("b"); err != nil || !ok || string(v) != "from-binary" {
		t.Fatalf("text get b = %q,%v,%v", v, ok, err)
	}
}

// TestBinaryCorruptFrameClosesConn: a malformed frame must close the
// connection (the stream cannot be re-framed) without hurting the server.
func TestBinaryCorruptFrameClosesConn(t *testing.T) {
	srv := newTransientServer(t, 2)
	conn := rawDial(t, srv.Addr())
	// Valid magic+version, then an oversized op count.
	hdr := []byte{wire.MagicRequest, wire.Version, 0, 0, 16, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	conn.Write(hdr)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection not closed after corrupt frame: %v", err)
	}

	// Mid-frame death: header promises a payload that never arrives.
	conn2 := rawDial(t, srv.Addr())
	var b wire.ReqBuilder
	b.Set("key", []byte("value"))
	frame := b.Bytes()
	conn2.Write(frame[:len(frame)-3])
	conn2.Close()

	// Server still serves both protocols.
	c, err := DialBinary(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("alive", []byte("yes")); err != nil {
		t.Fatal(err)
	}
}

// TestMixedProtocolStress hammers one ResPCT-backed server with text and
// binary clients at once — pipelined batches, sync ops and poisoned
// connections — under a live checkpointer. Run with -race this is the
// mixed-protocol concurrency gate.
func TestMixedProtocolStress(t *testing.T) {
	s := newRespctStore(t, 4)
	ck := s.Runtime().StartCheckpointer(5 * time.Millisecond)
	reg := telemetry.NewRegistry()
	srv, err := NewServerOpts(Gate(s), Options{Workers: 4, Addr: "127.0.0.1:0", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		ck.Stop()
	}()

	const clients = 8
	const opsPer = 60
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c%2 == 0 {
				// Text client, with every fourth poisoning a throwaway
				// connection first.
				if c%4 == 0 {
					bad, err := net.Dial("tcp", srv.Addr())
					if err != nil {
						errCh <- err
						return
					}
					bad.Write([]byte{wire.MagicRequest, 0xFF}) // bad version
					bad.Close()
				}
				cl, err := Dial(srv.Addr())
				if err != nil {
					errCh <- err
					return
				}
				defer cl.Close()
				for i := 0; i < opsPer; i++ {
					key := fmt.Sprintf("t%dk%d", c, i%13)
					if err := cl.Set(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
						errCh <- err
						return
					}
					if _, _, err := cl.Get(key); err != nil {
						errCh <- err
						return
					}
				}
				return
			}
			// Binary client running pipelined batches.
			cl, err := DialBinary(srv.Addr(), 4)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			var futs []*Future
			for i := 0; i < opsPer; i++ {
				q := cl.Queue()
				for j := 0; j < 8; j++ {
					key := fmt.Sprintf("b%dk%d", c, (i*8+j)%31)
					if j%3 == 0 {
						q.Get(key)
					} else {
						q.Set(key, []byte(fmt.Sprintf("v%d-%d", i, j)))
					}
				}
				fut, err := cl.Send()
				if err != nil {
					errCh <- err
					return
				}
				futs = append(futs, fut)
				if len(futs) >= 4 {
					if _, err := futs[0].Wait(); err != nil {
						errCh <- err
						return
					}
					futs = futs[1:]
				}
			}
			for _, fut := range futs {
				if _, err := fut.Wait(); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The wire telemetry saw the binary traffic (Registry.Counter returns
	// the existing series for a registered name).
	frames := reg.Counter("respct_wire_frames_total", "", nil).Value()
	ops := reg.Counter("respct_wire_ops_total", "", nil).Value()
	bytesIn := reg.Counter("respct_wire_bytes_total", "", telemetry.Labels{"dir": "in"}).Value()
	if frames == 0 || ops < frames || bytesIn == 0 {
		t.Fatalf("wire telemetry: frames=%d ops=%d bytesIn=%d", frames, ops, bytesIn)
	}
}
