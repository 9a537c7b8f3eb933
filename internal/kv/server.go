package kv

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/respct/respct/internal/telemetry"
	"github.com/respct/respct/internal/wire"
)

// Server exposes a Store over two protocols on one port, negotiated by a
// connection's first byte (wire.MagicRequest opens the binary protocol,
// anything else the memcached-style text protocol). The command surface —
// text grammar, binary opcodes, status codes, durability contracts — is
// specified normatively in docs/COMMANDS.md; the core of the text protocol:
//
//	set <key> <bytes>\r\n<data>\r\n  -> STORED\r\n
//	get <key>\r\n                    -> VALUE <key> <bytes>\r\n<data>\r\nEND\r\n  |  END\r\n
//	delete <key>\r\n                 -> DELETED\r\n | NOT_FOUND\r\n
//	quit\r\n
//
// Stores built with StoreOptions.Structures add the multi-model verbs
// (scan, qpush/qpop, lappend/lrange, expire/ttl, multi); on other stores
// they answer "SERVER_ERROR structures disabled".
//
// Both protocols are codecs around one executor (exec.go), and a request
// runs to completion on the goroutine of the connection that read it:
// decode it into an op, lease a store thread index, execute, give the index
// back, render the result. The binary protocol (internal/wire,
// docs/WIRE-PROTOCOL.md) carries batches of operations per frame, executed
// under one lease. A v2 frame with FlagAtomic is additionally
// all-or-nothing: see ApplyFrame.
//
// Connections are accepted without limit (the YCSB evaluation uses 32
// clients), but at most Options.Workers requests execute at once (the paper
// uses 4 threads): that many store thread indexes exist, and a request
// waits, first come first served, for a free one. A lease covers exactly one
// text command (a MULTI counts as one) or one binary frame and is never held
// across a socket read or write, so a slow reader cannot pin a thread. The
// server takes no checkpoint windows itself: the blocking-call rule of
// §3.3.3 is the store's business (DESIGN.md §3f), so a persistent store must
// come gated — a GatedStore or a shard.Store, whose threads sit in an allow
// window whenever they are between operations, an unleased thread included.
type Server struct {
	sf      surface // the store, resolved once
	ln      net.Listener
	slots   chan int // the unleased store thread indexes
	wg      sync.WaitGroup
	connWG  sync.WaitGroup
	closed  chan struct{}
	connSeq atomic.Uint32

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	met *serverMetrics // nil unless Options.Metrics was set
}

// Options configures NewServerOpts beyond the store itself.
type Options struct {
	// Workers is the number of store threads: how many requests execute at
	// once, each on a leased thread index in [0, Workers); further requests
	// queue for one. It must be at least 1.
	Workers int
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// Metrics enables server telemetry in this registry when non-nil.
	Metrics *telemetry.Registry
}

// serverMetrics is the server's optional telemetry: the wait for a lease,
// per-op latency histograms for the text path (one respct_kv_op_ns series
// per registry verb, indexed here by its Opcode), per-frame figures for the
// binary path — all recorded under the leased thread index, so sharded by
// it — byte counters for both directions of the binary protocol, an
// active-connection gauge and a protocol-error counter.
type serverMetrics struct {
	leaseWait *telemetry.Histogram
	opNs      [len(byCode)]*telemetry.Histogram
	conns     *telemetry.Gauge
	protoErrs *telemetry.Counter

	frames   *telemetry.Counter
	wireOps  *telemetry.Counter
	bytesIn  *telemetry.Counter
	bytesOut *telemetry.Counter
	frameOps *telemetry.Histogram
	frameNs  *telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	m := &serverMetrics{
		leaseWait: reg.Histogram("respct_kv_lease_wait_ns", "decoded request to leased store thread", nil),
		conns:     reg.Gauge("respct_kv_conns", "open client connections", nil),
		protoErrs: reg.Counter("respct_kv_protocol_errors_total", "malformed client commands", nil),

		frames:   reg.Counter("respct_wire_frames_total", "binary request frames executed", nil),
		wireOps:  reg.Counter("respct_wire_ops_total", "operations carried by binary frames", nil),
		bytesIn:  reg.Counter("respct_wire_bytes_total", "binary protocol bytes", telemetry.Labels{"dir": "in"}),
		bytesOut: reg.Counter("respct_wire_bytes_total", "binary protocol bytes", telemetry.Labels{"dir": "out"}),
		frameOps: reg.Histogram("respct_wire_frame_ops", "operations per binary frame", nil),
		frameNs:  reg.Histogram("respct_wire_frame_ns", "binary frame service time, lease to response built", nil),
	}
	for _, c := range commands {
		m.opNs[c.Opcode] = reg.Histogram("respct_kv_op_ns", "server-side operation latency, lease to result",
			telemetry.Labels{"op": c.Verb})
	}
	return m
}

// NewServer starts a server for store with the given store thread count,
// listening on addr (e.g. "127.0.0.1:0"). Use Addr to discover the bound
// address.
func NewServer(store Store, workers int, addr string) (*Server, error) {
	return NewServerOpts(store, Options{Workers: workers, Addr: addr})
}

// NewServerOpts starts a server for store with the full option set.
func NewServerOpts(store Store, o Options) (*Server, error) {
	if o.Workers < 1 {
		// No thread to lease: every request would wait forever.
		return nil, fmt.Errorf("kv: server needs at least one store thread, got %d workers", o.Workers)
	}
	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		sf:     surfaceOf(store),
		ln:     ln,
		slots:  make(chan int, o.Workers),
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	for th := 0; th < o.Workers; th++ {
		s.slots <- th
	}
	if o.Metrics != nil {
		s.met = newServerMetrics(o.Metrics)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		select {
		case <-s.closed:
			s.connMu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

// lease takes a free store thread index, waiting behind earlier requests
// while every index is leased (a channel serves its receivers in arrival
// order); the caller gives it back with s.slots <- th. With telemetry on it
// also observes the wait and returns when execution starts.
func (s *Server) lease() (th int, start time.Time) {
	if s.met == nil {
		return <-s.slots, start
	}
	decoded := time.Now()
	th = <-s.slots
	start = time.Now()
	s.met.leaseWait.ObserveDuration(th, start.Sub(decoded))
	return th, start
}

// do executes one text command — a MULTI included — into r under a lease
// that it returns before the caller renders r.
func (s *Server) do(o *op, r *result) {
	th, start := s.lease()
	s.sf.execute(th, o, r)
	if s.met != nil {
		s.met.opNs[o.code].ObserveDuration(th, time.Since(start))
	}
	s.slots <- th
}

// doFrame executes one binary frame under a lease, building its response
// frame in resp; the caller writes resp after the lease is returned. A
// non-nil error is a malformed frame (see ApplyFrame).
func (s *Server) doFrame(f *wire.ReqFrame, resp *wire.RespBuilder, r *result) error {
	resp.Reset()
	th, start := s.lease()
	err := s.sf.applyFrame(th, f, resp, r)
	if s.met != nil {
		s.met.frameNs.ObserveDuration(th, time.Since(start))
		s.met.frameOps.Observe(th, uint64(f.Ops()))
		s.met.wireOps.Add(th, uint64(f.Ops()))
		s.met.frames.Inc(th)
	}
	s.slots <- th
	return err
}

// protoErr counts one malformed client command when telemetry is on.
func (s *Server) protoErr() {
	if s.met != nil {
		s.met.protoErrs.Inc(0)
	}
}

// serveConn negotiates the protocol from the connection's first byte and
// hands off to the per-protocol loop.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	cid := int(s.connSeq.Add(1))
	if s.met != nil {
		s.met.conns.Add(1)
	}
	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		if s.met != nil {
			s.met.conns.Add(-1)
		}
	}()
	r := bufio.NewReader(conn)
	wtr := bufio.NewWriter(conn)
	first, err := r.Peek(1)
	if err != nil {
		return
	}
	if first[0] == wire.MagicRequest {
		s.serveBinary(r, wtr, cid)
		return
	}
	s.serveText(r, wtr)
}

// serveBinary is the binary-protocol connection loop: read one frame,
// execute it whole under one lease, write the response frame. Responses are
// flushed only when no further request bytes are buffered, so a pipelining
// client pays one write-back per burst, not per frame. Any frame error
// closes the connection — the stream cannot be re-synchronized after a bad
// frame.
func (s *Server) serveBinary(r *bufio.Reader, wtr *bufio.Writer, cid int) {
	var req wire.ReqFrame
	var resp wire.RespBuilder
	var res result
	for {
		if err := req.Decode(r); err != nil {
			if wire.IsProtocolError(err) {
				s.protoErr()
			}
			return
		}
		if s.met != nil {
			s.met.bytesIn.Add(cid, uint64(req.Len()))
		}
		if err := s.doFrame(&req, &resp, &res); err != nil {
			s.protoErr()
			return
		}
		out := resp.Bytes()
		if _, err := wtr.Write(out); err != nil {
			return
		}
		if s.met != nil {
			s.met.bytesOut.Add(cid, uint64(len(out)))
		}
		if r.Buffered() == 0 {
			if err := wtr.Flush(); err != nil {
				return
			}
		}
	}
}

// Close shuts the server down: stop accepting, then unblock and drain the
// open connections. A client that holds its socket open without sending
// cannot stall shutdown: every open connection's read deadline is set to the
// past, so its blocked read returns immediately. An in-flight request still
// gets its response: its connection goroutine finishes it first — waiting
// out a checkpoint its leased thread is parked in, if need be.
func (s *Server) Close() {
	select {
	case <-s.closed:
		return
	default:
		close(s.closed)
	}
	s.ln.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	s.connWG.Wait()
	s.wg.Wait()
}
