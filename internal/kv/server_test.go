package kv

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/respct/respct/internal/pmem"
)

func newTransientServer(t *testing.T, workers int) *Server {
	t.Helper()
	h := pmem.New(pmem.DRAMConfig(64 << 20))
	srv, err := NewServer(NewTransientStore(h), workers, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// rawDial opens a plain TCP connection for protocol-level poking.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func readLine(t *testing.T, conn net.Conn) string {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf []byte
	one := make([]byte, 1)
	for {
		if _, err := conn.Read(one); err != nil {
			t.Fatalf("read: %v (got %q so far)", err, buf)
		}
		buf = append(buf, one[0])
		if one[0] == '\n' {
			return string(buf)
		}
	}
}

// TestServerBadLengthClosesConn: an unparseable set length leaves an unknown
// number of body bytes on the wire — the server must reply and close rather
// than misparse the body as commands.
func TestServerBadLengthClosesConn(t *testing.T) {
	srv := newTransientServer(t, 2)
	conn := rawDial(t, srv.Addr())

	// The body here spells a valid delete command: before the desync fix the
	// server would have executed it as a command.
	fmt.Fprintf(conn, "set victim nonsense\r\ndelete victim\r\n")
	if line := readLine(t, conn); !strings.HasPrefix(line, "CLIENT_ERROR bad length") {
		t.Fatalf("reply = %q", line)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection not closed after bad length: %v", err)
	}

	// The server itself is still healthy for new connections.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// TestServerBadSetCommandClosesConn: a set line with the wrong field count
// may or may not be followed by a body, so the server closes.
func TestServerBadSetCommandClosesConn(t *testing.T) {
	srv := newTransientServer(t, 2)
	conn := rawDial(t, srv.Addr())
	fmt.Fprintf(conn, "set onlykey\r\n")
	if line := readLine(t, conn); !strings.HasPrefix(line, "CLIENT_ERROR bad command") {
		t.Fatalf("reply = %q", line)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection not closed after bad set command: %v", err)
	}
}

// TestServerOversizedValueStaysInSync: a valid-but-too-large length has its
// body consumed, so the same connection keeps working afterwards.
func TestServerOversizedValueStaysInSync(t *testing.T) {
	srv := newTransientServer(t, 2)
	conn := rawDial(t, srv.Addr())

	n := maxValueBytes + 1
	fmt.Fprintf(conn, "set big %d\r\n", n)
	body := bytes.Repeat([]byte("x"), n)
	if _, err := conn.Write(append(body, '\r', '\n')); err != nil {
		t.Fatal(err)
	}
	if line := readLine(t, conn); !strings.HasPrefix(line, "SERVER_ERROR object too large") {
		t.Fatalf("reply = %q", line)
	}

	// Same connection, normal command: still in sync.
	fmt.Fprintf(conn, "set small 3\r\nabc\r\n")
	if line := readLine(t, conn); !strings.HasPrefix(line, "STORED") {
		t.Fatalf("post-oversize set reply = %q", line)
	}
	fmt.Fprintf(conn, "get small\r\n")
	if line := readLine(t, conn); !strings.HasPrefix(line, "VALUE small 3") {
		t.Fatalf("post-oversize get reply = %q", line)
	}
}

// TestServerAbruptDisconnect: a client that vanishes mid-body must not wedge
// the server.
func TestServerAbruptDisconnect(t *testing.T) {
	srv := newTransientServer(t, 2)
	conn := rawDial(t, srv.Addr())
	fmt.Fprintf(conn, "set k 100\r\npartial")
	conn.Close()

	// Server still serves.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("after", []byte("disconnect")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("after"); err != nil || !ok || string(v) != "disconnect" {
		t.Fatalf("get = %q,%v,%v", v, ok, err)
	}
}

// TestServerCloseWithIdleConn: Close must return even while a client holds
// an open connection without sending anything (the connWG.Wait hang).
func TestServerCloseWithIdleConn(t *testing.T) {
	h := pmem.New(pmem.DRAMConfig(64 << 20))
	srv, err := NewServer(NewTransientStore(h), 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	idle := rawDial(t, srv.Addr())
	defer idle.Close()
	// Ensure the server has accepted the connection before closing.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Set("warm", []byte("up"))
	c.Close()

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close hung on an idle connection")
	}
}

// TestServerConcurrentStress hammers one server from many connections with
// mixed operations, including protocol errors on dedicated connections.
func TestServerConcurrentStress(t *testing.T) {
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

	const clients = 10
	const opsPer = 80
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Every third client first poisons its own throwaway
			// connection with a bad length, proving errors are isolated.
			if c%3 == 0 {
				bad, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					errCh <- err
					return
				}
				fmt.Fprintf(bad, "set x notanumber\r\ngarbage\r\n")
				bad.Close()
			}
			cl, err := Dial(srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("c%dk%d", c, i%17)
				switch i % 4 {
				case 0, 1:
					if err := cl.Set(key, []byte(fmt.Sprintf("v%d-%d", c, i))); err != nil {
						errCh <- fmt.Errorf("set %s: %w", key, err)
						return
					}
				case 2:
					if _, _, err := cl.Get(key); err != nil {
						errCh <- fmt.Errorf("get %s: %w", key, err)
						return
					}
				default:
					if _, err := cl.Delete(key); err != nil {
						errCh <- fmt.Errorf("delete %s: %w", key, err)
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
