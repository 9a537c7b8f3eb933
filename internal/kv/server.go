package kv

import (
	"bufio"
	"fmt"
	"io"
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
// Both protocols are codecs around one executor (exec.go): a connection
// goroutine decodes a request into an op, hands it to a worker, and renders
// the worker's result. The binary protocol (internal/wire,
// docs/WIRE-PROTOCOL.md) carries batches of operations per frame; a worker
// claims a whole frame, so the per-request hand-off cost is amortized across
// the batch. A v2 frame with FlagAtomic is additionally all-or-nothing: see
// ApplyFrame.
//
// Connections are accepted without limit (the YCSB evaluation uses 32
// clients), but requests are executed by a fixed pool of worker threads
// (the paper uses 4), each owning one store thread index. The server takes
// no checkpoint windows itself: the blocking-call rule of §3.3.3 is the
// store's business (DESIGN.md §3f), so a persistent store must come gated —
// a GatedStore or a shard.Store, whose threads sit in an allow window
// whenever they are between operations, a worker waiting for work included.
type Server struct {
	sf       surface // the store, resolved once
	proto    Protocol
	ln       net.Listener
	dispatch chan *job
	wg       sync.WaitGroup
	connWG   sync.WaitGroup
	closed   chan struct{}
	connSeq  atomic.Uint32

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	met *serverMetrics // nil unless Options.Metrics was set
}

// Protocol selects which wire formats a Server accepts.
type Protocol int

const (
	// ProtoAuto accepts both protocols, negotiated per connection by its
	// first byte. The default.
	ProtoAuto Protocol = iota
	// ProtoText accepts only the text protocol; binary connections are
	// refused with a text error line.
	ProtoText
	// ProtoBinary accepts only the binary protocol; text connections are
	// refused with a text error line.
	ProtoBinary
)

// ParseProtocol maps the kvserver flag spelling ("auto", "text", "binary")
// to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "auto":
		return ProtoAuto, nil
	case "text":
		return ProtoText, nil
	case "binary":
		return ProtoBinary, nil
	}
	return ProtoAuto, fmt.Errorf("kv: unknown protocol %q (want auto, text or binary)", s)
}

// Options configures NewServerOpts beyond the store itself.
type Options struct {
	// Workers is the executing thread-pool size; each worker owns one
	// store thread index.
	Workers int
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// Protocol restricts which protocols connections may speak.
	Protocol Protocol
	// Metrics enables server telemetry in this registry when non-nil.
	Metrics *telemetry.Registry
}

// serverMetrics is the server's optional telemetry: per-op latency
// histograms for the text path (observed by the executing worker, so
// recording is sharded by worker index; one respct_kv_op_ns series per
// registry verb, indexed here by its Opcode), per-frame figures for the
// binary path, byte counters for both directions of the binary protocol, an
// active-connection gauge and a protocol-error counter.
type serverMetrics struct {
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
		conns:     reg.Gauge("respct_kv_conns", "open client connections", nil),
		protoErrs: reg.Counter("respct_kv_protocol_errors_total", "malformed client commands", nil),

		frames:   reg.Counter("respct_wire_frames_total", "binary request frames executed", nil),
		wireOps:  reg.Counter("respct_wire_ops_total", "operations carried by binary frames", nil),
		bytesIn:  reg.Counter("respct_wire_bytes_total", "binary protocol bytes", telemetry.Labels{"dir": "in"}),
		bytesOut: reg.Counter("respct_wire_bytes_total", "binary protocol bytes", telemetry.Labels{"dir": "out"}),
		frameOps: reg.Histogram("respct_wire_frame_ops", "operations per binary frame", nil),
		frameNs:  reg.Histogram("respct_wire_frame_ns", "binary frame service time, claim to response built", nil),
	}
	for _, c := range commands {
		m.opNs[c.Opcode] = reg.Histogram("respct_kv_op_ns", "server-side operation latency, dispatch to reply",
			telemetry.Labels{"op": c.Verb})
	}
	return m
}

// job is one unit of worker work: a text command (o and r) or a whole binary
// frame (frame and resp). A connection owns one job and reuses it.
type job struct {
	o     *op
	r     *result
	frame *wire.ReqFrame
	resp  *wire.RespBuilder
	done  chan error // capacity 1: the worker's answer
}

// NewServer starts a server for store with the given worker count,
// listening on addr (e.g. "127.0.0.1:0"). Use Addr to discover the bound
// address.
func NewServer(store Store, workers int, addr string) (*Server, error) {
	return NewServerOpts(store, Options{Workers: workers, Addr: addr})
}

// NewServerOpts starts a server for store with the full option set.
func NewServerOpts(store Store, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		sf:    surfaceOf(store),
		proto: o.Protocol,
		ln:    ln,
		// A connection has one job in flight at a time, so the buffer only
		// has to absorb the connections that outnumber the workers; past it
		// a hand-off simply blocks until a worker frees up.
		dispatch: make(chan *job, 256),
		closed:   make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	if o.Metrics != nil {
		s.met = newServerMetrics(o.Metrics)
	}
	for w := 0; w < o.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
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

// do hands j to a worker and waits for its answer: the dispatch and reply
// hops that every request of either protocol pays.
func (s *Server) do(j *job) error {
	s.dispatch <- j
	return <-j.done
}

func (s *Server) worker(w int) {
	defer s.wg.Done()
	for j := range s.dispatch {
		j.done <- s.run(w, j)
	}
}

// run executes one job on worker w, recording telemetry when enabled. A
// non-nil error is a malformed binary frame (see ApplyFrame).
func (s *Server) run(w int, j *job) error {
	var start time.Time
	if s.met != nil {
		start = time.Now()
	}
	if j.frame == nil {
		s.sf.execute(w, j.o, j.r)
		if s.met != nil {
			s.met.opNs[j.o.code].ObserveDuration(w, time.Since(start))
		}
		return nil
	}
	j.resp.Reset()
	err := s.sf.applyFrame(w, j.frame, j.resp)
	if s.met != nil {
		s.met.frameNs.ObserveDuration(w, time.Since(start))
		s.met.frameOps.Observe(w, uint64(j.frame.Ops()))
		s.met.wireOps.Add(w, uint64(j.frame.Ops()))
		s.met.frames.Inc(w)
	}
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
		if s.proto == ProtoText {
			s.protoErr()
			io.WriteString(conn, "ERROR binary protocol disabled\r\n")
			return
		}
		s.serveBinary(r, wtr, cid)
		return
	}
	if s.proto == ProtoBinary {
		s.protoErr()
		io.WriteString(conn, "ERROR text protocol disabled\r\n")
		return
	}
	s.serveText(r, wtr)
}

// serveBinary is the binary-protocol connection loop: read one frame,
// dispatch it whole to a worker, write the worker-built response frame.
// Responses are flushed only when no further request bytes are buffered, so
// a pipelining client pays one write-back per burst, not per frame. Any
// frame error closes the connection — the stream cannot be re-synchronized
// after a bad frame.
func (s *Server) serveBinary(r *bufio.Reader, wtr *bufio.Writer, cid int) {
	var req wire.ReqFrame
	var resp wire.RespBuilder
	j := &job{frame: &req, resp: &resp, done: make(chan error, 1)}
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
		if err := s.do(j); err != nil {
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

// Close shuts the server down: stop accepting, unblock and drain the open
// connections, stop the workers. A client that holds its socket open without
// sending cannot stall shutdown: every open connection's read deadline is
// set to the past, so its blocked read returns immediately (an in-flight
// request still gets its response — workers run until the connections are
// drained).
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
	close(s.dispatch)
	s.wg.Wait()
}
