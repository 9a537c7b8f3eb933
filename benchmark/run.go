package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// ack is a connection's last acknowledged write to one key: which write it
// was and when it was sent and acknowledged (ns since the run's origin).
// seq 0 means the connection never wrote the key.
type ack struct {
	seq         uint64
	sent, acked int64
}

// client drives one connection: its generator state, its request scratch
// and its half of the correctness oracle.
type client struct {
	id   int
	run  *run
	c    *conn
	seq  uint64 // write sequence across all phases and servers
	acks []ack  // per key, for the connected server's data set; written only by this client's reply path
	out  []byte
	ops  []op
}

// phaseStats is what the clients measured in one phase.
type phaseStats struct {
	wall    time.Duration
	ops     uint64 // operations whose reply was correct
	wrong   uint64 // operations answered with anything else
	kinds   [numKinds]uint64
	lat     []int64           // ns per request
	kindLat [numKinds][]int64 // the same samples, by the kinds the request carried
	late    []int64           // open loop: send time minus due time
	busy    int64             // ns inside requests
	slow    int64             // ns inside requests slower than the workload's stall limit
	backlog int               // open loop: most requests in flight
	tx, rx  uint64
}

func (p *phaseStats) merge(o *phaseStats) {
	p.wall = max(p.wall, o.wall)
	p.ops += o.ops
	p.wrong += o.wrong
	p.lat = append(p.lat, o.lat...)
	p.late = append(p.late, o.late...)
	for k := range p.kinds {
		p.kinds[k] += o.kinds[k]
		p.kindLat[k] = append(p.kindLat[k], o.kindLat[k]...)
	}
	p.busy += o.busy
	p.slow += o.slow
	p.backlog = max(p.backlog, o.backlog)
	p.tx += o.tx
	p.rx += o.rx
}

// record books one request's latency, under every kind the request carried.
func (p *phaseStats) record(w *workload, ops []op, lat int64) {
	p.lat = append(p.lat, lat)
	var seen [numKinds]bool
	for _, o := range ops {
		if !seen[o.kind] {
			seen[o.kind] = true
			p.kindLat[o.kind] = append(p.kindLat[o.kind], lat)
		}
	}
	p.busy += lat
	if lat > int64(w.stall) {
		p.slow += lat
	}
}

// quantileUs returns the q-quantile of ns samples in µs (0 when empty). It
// sorts v in place.
func quantileUs(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(v[min(int(q*float64(len(v))), len(v)-1)]) / 1e3
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// run is one benchmark run of one workload: the server binary, the scratch
// directory, the clients and the totals that feed failed_frac.
type run struct {
	w       *workload
	sz      sizing
	seed    int64
	seconds time.Duration
	bin     string // kvserver binary
	dir     string // scratch directory, removed when the run ends
	origin  time.Time
	zipf    *zipf
	clients []*client
	phases  int       // traffic phases begun; each seeds its own op stream
	servers []*server // every child started, so close can reach them all
	// oracle holds, per data set (named by its snapshot path) and connection,
	// the last acknowledged write to every key. A restart from the same
	// snapshot inherits the tables; a second server gets its own.
	oracle map[string][][]ack

	attempted, failed uint64
}

func newRun(root string, w *workload, sz sizing, seed int64, seconds time.Duration) (*run, error) {
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildServer(root)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	r := &run{w: w, sz: sz, seed: seed, seconds: seconds, bin: bin, dir: dir,
		origin: time.Now(), zipf: newZipf(sz.records), oracle: map[string][][]ack{}}
	for i := 0; i < clientConns; i++ {
		r.clients = append(r.clients, &client{id: i, run: r})
	}
	return r, nil
}

// close kills whatever is still running and removes the scratch directory.
func (r *run) close() {
	r.disconnect()
	for _, s := range r.servers {
		s.kill()
	}
	os.RemoveAll(r.dir)
}

func (r *run) now() int64 { return int64(time.Since(r.origin)) }

// phaseTimeout bounds how long a phase may overrun its own length before the
// run gives up on a wedged server.
const phaseTimeout = 60 * time.Second

// start execs a server with the fixed sizing flags plus the workload's own —
// and nothing else, so the benchmark measures the server's defaults.
func (r *run) start(snapshot string, extra ...string) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-workers", "2",
		"-heap", strconv.FormatInt(r.sz.heapBytes, 10), "-buckets", strconv.Itoa(r.sz.buckets),
		"-interval", ckptInterval.String(), "-snapshot", snapshot}
	args = append(append(args, r.w.serverFlags()...), extra...)
	if err := os.MkdirAll(filepath.Dir(snapshot), 0o755); err != nil {
		return nil, err
	}
	s, err := startServer(r.bin, args, phaseTimeout)
	if err != nil {
		return nil, err
	}
	s.snapshot = snapshot
	r.servers = append(r.servers, s)
	return s, nil
}

// connect (re)dials the run's connections to s and points the clients at the
// oracle tables of s's data set, which its first connection creates.
func (r *run) connect(s *server) error {
	r.disconnect()
	for len(r.oracle[s.snapshot]) < len(r.clients) {
		r.oracle[s.snapshot] = append(r.oracle[s.snapshot], make([]ack, r.sz.records))
	}
	for _, cl := range r.clients {
		c, err := dial(s.addr)
		if err != nil {
			return fmt.Errorf("%w\nkvserver output:\n%s", err, s.log.String())
		}
		cl.c, cl.acks = c, r.oracle[s.snapshot][cl.id]
	}
	return nil
}

func (r *run) disconnect() {
	for _, cl := range r.clients {
		if cl.c != nil {
			cl.c.close()
			cl.c = nil
		}
	}
}

// each runs f on every client concurrently, with a deadline on the
// connection so that a wedged server fails the phase instead of hanging it,
// and merges the per-client stats. Failures come back with the server's log.
func (r *run) each(s *server, length time.Duration, f func(cl *client, st *phaseStats) error) (*phaseStats, error) {
	stats := make([]phaseStats, len(r.clients))
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, cl := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.c.c.SetDeadline(time.Now().Add(length + phaseTimeout))
			tx, rx, t0 := cl.c.tx, cl.c.rx, time.Now()
			errs[i] = f(cl, &stats[i])
			stats[i].wall = time.Since(t0)
			stats[i].tx, stats[i].rx = cl.c.tx-tx, cl.c.rx-rx
		}()
	}
	wg.Wait()
	total := &phaseStats{}
	for i := range stats {
		total.merge(&stats[i])
	}
	r.attempted += total.ops + total.wrong
	r.failed += total.wrong
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("%w\nkvserver output:\n%s", err, s.log.String())
	}
	return total, nil
}

// send encodes cl.ops as one request (text lines, or one binary frame) with
// set values stamped as written by stamp, and writes it.
func (cl *client) send(text bool, stamp byte) error {
	if text {
		cl.out = cl.out[:0]
		for _, o := range cl.ops {
			cl.out = appendTextOp(cl.out, o, stamp)
		}
	} else {
		cl.out = beginFrame(cl.out[:0])
		for _, o := range cl.ops {
			cl.out = appendBinaryOp(cl.out, o, stamp)
		}
		endFrame(cl.out, len(cl.ops))
	}
	return cl.c.write(cl.out)
}

// checkFn judges one reply. sent and done bracket the operation's request:
// when it was written and when its reply had arrived.
type checkFn func(o op, res result, sent, done int64) bool

// receive reads the replies to ops, judges each with check and returns the
// time the last reply byte arrived.
func (cl *client) receive(text bool, ops []op, sent int64, st *phaseStats, check checkFn) (int64, error) {
	var payload []byte
	var done int64
	if !text {
		n, p, err := cl.c.readFrame()
		if err != nil {
			return 0, err
		}
		if n != len(ops) {
			return 0, fmt.Errorf("%w: %d results for %d operations", errProtocol, n, len(ops))
		}
		payload, done = p, cl.run.now()
	}
	for _, o := range ops {
		var res result
		var err error
		if text {
			res, err = cl.c.readTextReply()
			done = cl.run.now()
		} else {
			res, payload, err = nextResult(payload)
		}
		if err != nil {
			return 0, err
		}
		if check(o, res, sent, done) {
			st.ops++
			st.kinds[o.kind]++
		} else {
			st.wrong++
		}
	}
	return done, nil
}

// checkTraffic is the oracle for traffic phases: a get must return a value
// that names its key (and, if this connection wrote it, this connection's
// latest write); a set must be stored, and is then this connection's last
// acknowledged write to the key; a scan must return exactly the keys start,
// start+1, ... up to its limit, each with a value naming its key.
func (cl *client) checkTraffic(o op, res result, sent, done int64) bool {
	switch o.kind {
	case opGet:
		key, conn, seq, ok := valueStamp(res.value)
		if res.status != stValue || !ok || key != o.key {
			return false
		}
		if res.key != nil {
			if k, ok := parseKey(res.key); !ok || k != o.key {
				return false
			}
		}
		return int(conn) != cl.id || seq == cl.acks[key].seq
	case opSet:
		if res.status != stStored {
			return false
		}
		cl.acks[o.key] = ack{seq: o.seq, sent: sent, acked: done}
		return true
	default:
		if res.status != stEntries {
			return false
		}
		n, good := 0, true
		err := eachEntry(res.value, func(k, v []byte) {
			key, ok := parseKey(k)
			vk, _, _, vok := valueStamp(v)
			good = good && ok && vok && key == o.key+n && vk == key
			n++
		})
		return err == nil && good && n == min(o.limit, cl.run.sz.records-o.key)
	}
}

// closedLoop sends request after request for length, each only after the
// previous one's last reply byte.
func (r *run) closedLoop(s *server, length time.Duration) (*phaseStats, error) {
	r.phases++
	return r.each(s, length, func(cl *client, st *phaseStats) error {
		g := newGen(r.w, r.sz.records, r.zipf, r.seed, cl.id, r.phases, &cl.seq)
		st.lat = make([]int64, 0, 1<<16)
		end := time.Now().Add(length)
		for time.Now().Before(end) {
			cl.ops = cl.ops[:0]
			for i := 0; i < r.w.depth; i++ {
				cl.ops = append(cl.ops, g.next())
			}
			t0 := r.now()
			if err := cl.send(r.w.text, byte(cl.id)); err != nil {
				return err
			}
			t1, err := cl.receive(r.w.text, cl.ops, t0, st, cl.checkTraffic)
			if err != nil {
				return err
			}
			st.record(r.w, cl.ops, t1-t0)
		}
		return nil
	})
}

// inflight is one open-loop request between its sender and its receiver.
type inflight struct {
	ops       []op
	due, sent int64
}

// openLoop sends requests on a Poisson schedule at the workload's fixed rate
// whether or not replies have arrived (they are pipelined on the connection),
// and times each from the moment it was due, so a stall charges every request
// scheduled during it. How late the sender itself ran is recorded beside it.
func (r *run) openLoop(s *server, length time.Duration) (*phaseStats, error) {
	meanGap := float64(r.w.depth*clientConns) / r.w.openRate * 1e9
	r.phases++
	return r.each(s, length, func(cl *client, st *phaseStats) error {
		g := newGen(r.w, r.sz.records, r.zipf, r.seed, cl.id, r.phases, &cl.seq)
		// Sized for over four seconds of arrivals at the highest rate, so a
		// stalled server shows as latency, not as a sender that stopped.
		queue := make(chan inflight, 1<<15)
		var sendErr error // read only after queue is closed
		go func() {
			defer close(queue)
			due, end := r.now(), r.now()+int64(length)
			for {
				due += int64(-math.Log(1-g.rng.float()) * meanGap)
				if due > end {
					return
				}
				if d := due - r.now(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				cl.ops = make([]op, r.w.depth)
				for i := range cl.ops {
					cl.ops[i] = g.next()
				}
				sent := r.now()
				if sendErr = cl.send(r.w.text, byte(cl.id)); sendErr != nil {
					return
				}
				queue <- inflight{ops: cl.ops, due: due, sent: sent}
				st.backlog = max(st.backlog, len(queue))
			}
		}()
		var recvErr error
		for req := range queue {
			if recvErr != nil {
				continue // drain so the sender can finish
			}
			done, err := cl.receive(r.w.text, req.ops, req.sent, st, cl.checkTraffic)
			if err != nil {
				recvErr = err
				cl.c.close() // unblocks a sender stuck in write
				continue
			}
			st.record(r.w, req.ops, done-req.due)
			st.late = append(st.late, req.sent-req.due)
		}
		return errors.Join(sendErr, recvErr)
	})
}

// sweep sends kind ops for every key, binary frames of 64, the key space
// split evenly over the connections. It is the load and the verify phase.
func (r *run) sweep(s *server, kind int, check checkFn) (*phaseStats, error) {
	return r.each(s, 0, func(cl *client, st *phaseStats) error {
		per := (r.sz.records + clientConns - 1) / clientConns
		for lo, hi := cl.id*per, min((cl.id+1)*per, r.sz.records); lo < hi; {
			cl.ops = cl.ops[:0]
			for ; lo < hi && len(cl.ops) < 64; lo++ {
				cl.ops = append(cl.ops, op{kind: kind, key: lo})
			}
			if err := cl.send(false, loaderConn); err != nil {
				return err
			}
			if _, err := cl.receive(false, cl.ops, 0, st, check); err != nil {
				return err
			}
		}
		return nil
	})
}

// stored is the oracle of a load: every set must be acknowledged.
func stored(_ op, res result, _, _ int64) bool { return res.status == stStored }

// setUp is what setup_s times: exec, load of every record acknowledged, one
// idle checkpoint interval elapsed.
func (r *run) setUp(snapshot string, extra ...string) (*server, float64, error) {
	s, err := r.start(snapshot, extra...)
	if err != nil {
		return nil, 0, err
	}
	if err := r.connect(s); err != nil {
		return nil, 0, err
	}
	if _, err := r.sweep(s, opSet, stored); err != nil {
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	// A connection keeps the protocol of its first byte, and the load spoke
	// binary: the traffic phases get fresh connections.
	if err := r.connect(s); err != nil {
		return nil, 0, err
	}
	time.Sleep(ckptInterval)
	return s, time.Since(s.started).Seconds(), nil
}

// checkFinal is the oracle after a restart: the key must hold the last value
// acknowledged by either connection. A value names its writer; it must be
// that writer's last acknowledged write to the key, and the other connection
// must not have sent a write to the key after that acknowledgement (writes
// that overlapped may have landed in either order).
func (r *run) checkFinal(o op, res result, _, _ int64) bool {
	key, conn, seq, ok := valueStamp(res.value)
	if res.status != stValue || !ok || key != o.key {
		return false
	}
	if conn == loaderConn {
		for _, cl := range r.clients {
			if cl.acks[key].seq != 0 {
				return false
			}
		}
		return seq == 0
	}
	if int(conn) >= len(r.clients) {
		return false
	}
	mine := r.clients[conn].acks[key]
	if seq != mine.seq {
		return false
	}
	for _, cl := range r.clients {
		if other := cl.acks[key]; cl.id != int(conn) && other.seq != 0 && other.sent > mine.acked {
			return false
		}
	}
	return true
}

// measurement is one run's metrics by name, plus the sample count behind the
// latency percentiles.
type measurement struct {
	values  map[string]float64
	samples int
}

// blockLen is the length of one measured block of an end-to-end run; each is
// preceded by a blockWarmup that is not measured.
const (
	blockLen    = time.Second
	blockWarmup = 200 * time.Millisecond
)

// block thaws s, warms it up, runs the closed loop on it for blockLen and
// freezes it again: while one server of a pair is measured the other takes
// no CPU. It returns the block's stats and the server CPU seconds it cost.
func (r *run) block(s *server) (*phaseStats, float64, error) {
	s.freeze(false)
	defer s.freeze(true)
	if err := r.connect(s); err != nil {
		return nil, 0, err
	}
	if _, err := r.closedLoop(s, blockWarmup); err != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	cpu0, err := s.cpuSeconds()
	if err != nil {
		return nil, 0, err
	}
	m, err := r.closedLoop(s, blockLen)
	if err != nil {
		return nil, 0, fmt.Errorf("measured block: %w", err)
	}
	cpu1, err := s.cpuSeconds()
	r.disconnect()
	return m, cpu1 - cpu0, err
}

// startReference execs the benchmark itself as the reference server (see
// reference.go) and loads it with every record.
func (r *run) startReference() (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s, err := startServer(exe, []string{"-reference", strconv.Itoa(r.sz.records)}, phaseTimeout)
	if err != nil {
		return nil, err
	}
	s.snapshot = "reference" // names its data set; it snapshots nothing
	r.servers = append(r.servers, s)
	if err := r.connect(s); err != nil {
		return nil, err
	}
	if _, err := r.sweep(s, opSet, stored); err != nil {
		return nil, fmt.Errorf("reference load: %w", err)
	}
	r.disconnect()
	return s, nil
}

// recoverCycle is the rest of a server's life after traffic: SIGTERM with its
// drain, final checkpoint and snapshot; exec again with the same -snapshot
// until the first reply to a get; read-back of every key against the oracle.
// It fills in shutdown_s, disk_amp, restart_s and verify_s.
func (r *run) recoverCycle(s *server, m map[string]float64) error {
	r.disconnect()
	shutdown, err := s.terminate(2 * phaseTimeout)
	if err != nil {
		return err
	}
	disk, err := dirBytes(filepath.Dir(s.snapshot))
	if err != nil {
		return err
	}
	s, err = r.start(s.snapshot)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if err := r.connect(s); err != nil {
		return err
	}
	// A wrong first reply fails the run like any other failed operation.
	if _, err := r.each(s, 0, func(cl *client, st *phaseStats) error {
		if cl.id != 0 {
			return nil
		}
		cl.ops = append(cl.ops[:0], op{kind: opGet})
		if err := cl.send(false, 0); err != nil {
			return err
		}
		_, err := cl.receive(false, cl.ops, 0, st, r.checkFinal)
		return err
	}); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	restart := time.Since(s.started)
	v, err := r.sweep(s, opGet, r.checkFinal)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	r.disconnect()
	s.kill()
	m["shutdown_s"], m["restart_s"], m["verify_s"] = shutdown.Seconds(), restart.Seconds(), v.wall.Seconds()
	m["disk_amp"] = float64(disk) / r.sz.userBytes()
	return nil
}

// endToEnd drives the real server through its whole life: set-up, warm-up,
// the measured closed loop, SIGTERM with its final checkpoint and snapshot, a
// restart that recovers from the snapshot, and a read-back of every key.
//
// This host's speed changes by a quarter and more from one half-minute to the
// next (other tenants of the machine), more than any bound could cover. So
// the measured phase alternates one-second blocks on kvserver with one-second
// blocks of the same traffic on the reference server, and each kvserver
// block's throughput and CPU per op are scaled by the host speed its
// neighbouring reference block saw: the reference's throughput over its usual
// throughput on the workload. Each metric is the median over the block pairs.
// The other timings are reported as measured.
func (r *run) endToEnd() (*measurement, error) {
	ref, err := r.startReference()
	if err != nil {
		return nil, err
	}
	ref.freeze(true)
	snapshot := filepath.Join(r.dir, "kv", "kv.img")
	var s *server
	var setups []float64
	for i := 0; i < r.sz.setupReps; i++ {
		if s != nil { // the earlier set-ups only feed the median
			r.disconnect()
			s.kill()
		}
		var d float64
		if s, d, err = r.setUp(snapshot); err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	if _, err := r.closedLoop(s, r.sz.warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.disconnect()
	s.freeze(true)

	var speed, thr, p50, p99, cpu []float64
	samples := 0
	for range max(int(r.seconds/(2*blockLen)), 1) {
		m, cpuSec, err := r.block(s)
		if err != nil {
			return nil, err
		}
		rm, _, err := r.block(ref)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		hs := float64(rm.ops) / rm.wall.Seconds() / r.w.refOps
		speed = append(speed, hs)
		thr = append(thr, float64(m.ops)/m.wall.Seconds()/hs)
		p50 = append(p50, quantileUs(m.lat, 0.50))
		p99 = append(p99, quantileUs(m.lat, 0.99))
		cpu = append(cpu, cpuSec*1e6/float64(m.ops)*hs)
		samples += len(m.lat)
	}
	ref.kill()
	s.freeze(false)
	rss, err := s.rssPeakMiB()
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"setup_s":          median(setups),
		"throughput_ops_s": median(thr),
		"lat_p50_us":       median(p50),
		"lat_p99_us":       median(p99),
		"cpu_us_per_op":    median(cpu),
		"rss_peak_mb":      rss,
		"host_speed":       median(speed),
	}
	if err := r.recoverCycle(s, m); err != nil {
		return nil, err
	}
	return &measurement{samples: samples, values: m}, nil
}
