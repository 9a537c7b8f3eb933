package main

// This is the only file of the benchmark that imports the code under test.
// It replays the workload's own op stream, in process and on one goroutine,
// through each layer's public functions: the micro rungs time one primitive
// per operation, and the chain rungs (store → shard → apply → server) each
// add exactly one layer and take turns epoch by epoch, so a rung minus the
// rung below is that layer's self time and the self times sum to the top
// rung.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/frame"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/shard"
	"github.com/respct/respct/internal/structures"
	"github.com/respct/respct/internal/wire"
)

// lad is the ladder's state: the op stream, one epoch of it at a time.
type lad struct {
	w    *workload
	sz   sizing
	seed int64
	g    *gen
	seq  uint64

	// The current chunk: one epoch of operations (w.epochOps of them, a
	// whole number of requests), with keys and set values pre-rendered side
	// by side as a request frame would carry them, so a timed body touches
	// nothing but the layer under test.
	ops  []op
	keys string // the chunk's keys, keyLen bytes each
	vals [][]byte
	buf  []byte
}

func newLad(w *workload, sz sizing, seed int64) *lad {
	l := &lad{w: w, sz: sz, seed: seed}
	l.g = newGen(w, sz.records, newZipf(sz.records), seed, 0, 0, &l.seq) // phase 0: no traffic phase has it
	l.ops = make([]op, w.epochOps)
	l.vals = make([][]byte, w.epochOps)
	l.buf = make([]byte, 0, w.epochOps*valueLen)
	l.refill()
	return l
}

// refill draws the next epoch of the op stream.
func (l *lad) refill() {
	l.buf = l.buf[:0]
	kb := make([]byte, 0, len(l.ops)*keyLen)
	for i := range l.ops {
		o := l.g.next()
		l.ops[i], l.vals[i] = o, nil
		kb = appendKey(kb, o.key)
		if o.kind == opSet {
			n := len(l.buf)
			l.buf = appendValue(l.buf, o.key, 0, o.seq)
			l.vals[i] = l.buf[n:]
		}
	}
	l.keys = string(kb)
}

// key is the i-th operation's key.
func (l *lad) key(i int) string { return l.keys[i*keyLen : (i+1)*keyLen] }

// eachRecord calls f with every record's key and loaded value, and ckpt after
// every epoch's worth, as a load phase would.
func (l *lad) eachRecord(f func(key string, value []byte), ckpt func()) {
	var kb, vb []byte
	for i := 0; i < l.sz.records; i++ {
		kb, vb = appendKey(kb[:0], i), appendValue(vb[:0], i, loaderConn, 0)
		f(string(kb), vb)
		if i%len(l.ops) == len(l.ops)-1 {
			ckpt()
		}
	}
	ckpt()
}

// rung times body, which performs one chunk of operations each call, and
// returns ns per operation. between runs untimed after every call: a
// checkpoint, a refill.
func (l *lad) rung(body, between func()) float64 {
	return l.rungPer(func() int { body(); return len(l.ops) }, between)
}

// rungPer is rung for a body that counts its own units of work.
func (l *lad) rungPer(body func() int, between func()) float64 {
	return l.rungs(l.sz.rung, []func() int{body}, between)[0]
}

// rungs times several bodies in rotation, one chunk each per round, so that
// whatever varies over time (the host, the heap's age) falls on all of them
// alike and cancels in their differences. The first round is a warm-up and is
// not timed; rounds then repeat until the wall budget (timed and untimed) or
// the op cap is spent. It returns each body's ns per unit of work, as the
// median over its rounds: a round hit by a neighbour on the host is an
// outlier, not a share of the mean.
func (l *lad) rungs(budget time.Duration, bodies []func() int, between func()) []float64 {
	per := make([][]float64, len(bodies)) // ns per unit, by body and round
	units := 0
	round := func(timed bool) {
		for i, body := range bodies {
			t0 := time.Now()
			n := body()
			if d := time.Since(t0); timed && n > 0 {
				per[i] = append(per[i], float64(d.Nanoseconds())/float64(n))
				units += n
			}
			between()
		}
	}
	round(false)
	for start := time.Now(); units == 0 || time.Since(start) < budget && (l.sz.rungOps == 0 || units < l.sz.rungOps*len(bodies)); {
		round(true)
	}
	ns := make([]float64, len(bodies))
	for i := range ns {
		if len(per[i]) > 0 {
			ns[i] = median(per[i])
		}
	}
	return ns
}

var sink uint64 // keeps the compiler from discarding timed loads

func ladder(w *workload, sz sizing, seed int64, dir string, m map[string]float64) error {
	l := newLad(w, sz, seed)
	if err := l.micro(m); err != nil {
		return err
	}
	return l.chain(dir, m)
}

// micro times the primitives of pmem, core and structures over the
// workload's key stream, on a runtime of their own.
func (l *lad) micro(m map[string]float64) error {
	h := pmem.New(pmem.NVMMConfig(l.sz.heapBytes))
	rt, err := core.NewRuntime(h, core.Config{Threads: 1})
	if err != nil {
		return err
	}
	th, arena := rt.Thread(0), rt.Arena()
	checkpoint := func() {
		th.CheckpointAllow()
		rt.Checkpoint()
		th.CheckpointPrevent(nil)
	}
	next := func() { checkpoint(); l.refill() }

	raw := arena.AllocRaw(th, l.sz.records) // one word per record
	word := func(o op) pmem.Addr { return raw + pmem.Addr(o.key*pmem.WordSize) }
	m["pmem.load_ns"] = l.rung(func() {
		for _, o := range l.ops {
			sink += h.Load64(word(o))
		}
	}, next)
	m["pmem.store_ns"] = l.rung(func() {
		for _, o := range l.ops {
			h.Store64(word(o), o.seq)
		}
	}, next)
	fl, lines, at := h.NewFlusher(), l.sz.records*pmem.WordSize/pmem.LineSize, 0
	m["pmem.flush_line_ns"] = l.rung(func() {
		for range l.ops { // distinct lines, one fence: the shape of a checkpoint flush
			fl.CLWB(raw + pmem.Addr(at%lines*pmem.LineSize))
			at++
		}
		fl.SFence()
	}, next)

	m["core.store_tracked_ns"] = l.rung(func() {
		for _, o := range l.ops {
			th.StoreTracked(word(o), o.seq)
		}
	}, next)
	const cellsPerBlock = 1024
	var blocks []pmem.Addr
	for i := 0; i < l.sz.records; i += cellsPerBlock {
		b := arena.AllocCells(th, cellsPerBlock)
		for c := 0; c < cellsPerBlock; c++ {
			th.Init(core.Cell(b, c), 0)
		}
		blocks = append(blocks, b)
	}
	checkpoint()
	m["core.incll_update_ns"] = l.rung(func() {
		for _, o := range l.ops {
			th.Update(core.Cell(blocks[o.key/cellsPerBlock], o.key%cellsPerBlock), o.seq)
		}
	}, next)
	const recCells, recWords = 2, 1 + keyLen/8 + (valueLen+7)/8 // a structures-mode record
	m["core.alloc_free_ns"] = l.rung(func() {
		for range l.ops {
			arena.Free(th, arena.Alloc(th, recCells, recWords))
		}
	}, next)
	m["core.rp_ns"] = l.rung(func() {
		for range l.ops {
			th.RP(1)
		}
	}, next)
	m["core.prevent_allow_ns"] = l.rung(func() {
		for range l.ops {
			th.CheckpointAllow()
			th.CheckpointPrevent(nil)
		}
	}, next)

	hm, err := structures.NewRespctMap(rt, 0, l.sz.buckets)
	if err != nil {
		return err
	}
	sl, err := structures.NewRespctStrSkipList(rt, 1)
	if err != nil {
		return err
	}
	i := uint64(0)
	l.eachRecord(func(k string, _ []byte) {
		i++
		hm.Insert(0, i, 1)
		sl.Insert(0, k, 1)
	}, checkpoint)
	m["structures.map_get_ns"] = l.rung(func() {
		for _, o := range l.ops {
			v, _ := hm.Get(0, uint64(o.key)+1)
			sink += v
		}
	}, next)
	m["structures.map_put_ns"] = l.rung(func() {
		for _, o := range l.ops {
			hm.Insert(0, uint64(o.key)+1, o.seq)
		}
	}, next)
	m["structures.skip_get_ns"] = l.rung(func() {
		for i := range l.ops {
			v, _ := sl.Get(0, l.key(i))
			sink += v
		}
	}, next)
	m["structures.skip_put_ns"] = l.rung(func() {
		for i, o := range l.ops {
			sl.Insert(0, l.key(i), o.seq)
		}
	}, next)
	m["structures.skip_scan_entry_ns"] = l.rungPer(func() int {
		entries := 0
		for i, o := range l.ops {
			left := 1 + o.key%100 // the scan workload's limits: 1 to 100
			sl.Scan(0, l.key(i), "", func(string, uint64) bool {
				entries++
				left--
				return left > 0
			})
		}
		return entries
	}, l.refill)
	return nil
}

// chain climbs the rungs store → shard → apply → server on one pool sized
// like the server's. The four rungs take turns, one epoch of the op stream
// each, with a checkpoint by hand behind every epoch, so no rung's time
// includes a pause and every operation meets keys as cold as the server
// would. The direct checkpoint, frame and recovery figures then come from
// the same pool.
func (l *lad) chain(dir string, m map[string]float64) error {
	w, n := l.w, len(l.ops)
	cfg := shard.Config{
		Shards: w.shards, Workers: 2, Structures: true, Async: w.async,
		Buckets: max(l.sz.buckets/w.shards, 1<<8), HeapBytes: l.sz.heapBytes / int64(w.shards),
	}
	pool, err := shard.NewPool(cfg)
	if err != nil {
		return err
	}
	store := pool.Store()
	l.eachRecord(func(k string, v []byte) { store.Set(0, k, v) }, pool.CheckpointAll)
	pool.WaitDrains()

	// Each checkpoint behind a rung's turn flushes exactly one epoch of the
	// workload's writes: these are the direct checkpoint figures.
	var gates, flushes []float64
	var flushNs, flushLines float64
	checkpoint := func() {
		var gate, flush time.Duration
		for i := 0; i < pool.NumShards(); i++ {
			info := pool.Shard(i).RT.Checkpoint()
			gate = max(gate, info.GateWait)
			flush += info.FlushTime
			flushLines += float64(info.LinesWrote)
		}
		pool.WaitDrains()
		gates = append(gates, float64(gate.Nanoseconds())/1e3)
		flushes = append(flushes, float64(flush.Nanoseconds())/1e3)
		flushNs += float64(flush.Nanoseconds())
	}

	apply := func(st kv.Store, i int, o op) {
		switch o.kind {
		case opGet:
			v, _ := st.Get(0, l.key(i))
			sink += uint64(len(v))
		case opSet:
			st.Set(0, l.key(i), l.vals[i])
		default:
			sink += uint64(len(st.(kv.StructOps).Scan(0, l.key(i), "", o.limit)))
		}
		st.PerOp(0)
	}

	// Rung 1, the store itself: each operation goes straight to the shard
	// store its key routes to (resolved in prepare, outside the timing). A
	// pool leaves every thread's checkpoint-allow window open between
	// operations; bypassing the routed store, this rung holds thread 0's
	// windows shut over the epoch itself, as a server worker on a bare
	// store does.
	routed := make([]*kv.RespctStore, n)
	window := func(shut bool) {
		for i := 0; i < pool.NumShards(); i++ {
			if t := pool.Shard(i).RT.Thread(0); shut {
				t.CheckpointPrevent(nil)
			} else {
				t.CheckpointAllow()
			}
		}
	}
	storeRung := func() int {
		window(true)
		for i, o := range l.ops {
			apply(routed[i], i, o)
		}
		window(false)
		return n
	}

	// Rung 2, the routed store: shard choice plus the checkpoint-prevent
	// window around every operation.
	shardRung := func() int {
		for i, o := range l.ops {
			apply(store, i, o)
		}
		return n
	}

	// Rung 3: request frames of the workload's depth, decoded and run
	// through kv.ApplyFrame, no socket.
	var rb wire.ReqBuilder
	var req wire.ReqFrame
	var resp wire.RespBuilder
	var rd bytes.Reader
	var frames [][]byte // the epoch as wire.ReqBuilder frames
	build := func(i int) {
		rb.Reset()
		for j, o := range l.ops[i : i+w.depth] {
			switch o.kind {
			case opGet:
				rb.Get(l.key(i + j))
			case opSet:
				rb.Set(l.key(i+j), l.vals[i+j])
			default:
				rb.Scan(l.key(i+j), "", uint32(o.limit))
			}
		}
	}
	var rungErr error
	applyRung := func() int {
		for _, f := range frames {
			rd.Reset(f)
			if err := req.Decode(&rd); err != nil {
				rungErr = err
			}
			resp.Reset()
			if err := kv.ApplyFrame(store, 0, &req, &resp); err != nil {
				rungErr = err
			}
		}
		return n
	}

	// Rung 4: the server in process, over loopback: one connection, the
	// workload's protocol and depth, spoken by the benchmark's own client.
	srv, err := kv.NewServerOpts(store, kv.Options{Workers: 2, Addr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c.close()
	c.c.SetDeadline(time.Now().Add(phaseTimeout))
	var requests [][]byte // the epoch as the benchmark client's requests
	serverRung := func() int {
		for _, f := range requests {
			if err := c.write(f); err != nil {
				rungErr = err
				break
			}
			if w.text {
				for range w.depth {
					if _, err := c.readTextReply(); err != nil {
						rungErr = err
					}
				}
			} else if _, _, err := c.readFrame(); err != nil {
				rungErr = err
			}
		}
		return n
	}

	prepare := func() {
		l.refill()
		frames, requests = frames[:0], requests[:0]
		for i := range l.ops {
			routed[i] = pool.Shard(pool.ShardFor(l.key(i))).KV
		}
		for i := 0; i < n; i += w.depth {
			build(i)
			frames = append(frames, append([]byte(nil), rb.Bytes()...))
			var f []byte
			if w.text {
				for _, o := range l.ops[i : i+w.depth] {
					f = appendTextOp(f, o, 0)
				}
			} else {
				f = beginFrame(f)
				for _, o := range l.ops[i : i+w.depth] {
					f = appendBinaryOp(f, o, 0)
				}
				endFrame(f, w.depth)
			}
			requests = append(requests, f)
		}
	}
	prepare()
	ns := l.rungs(8*l.sz.rung, []func() int{storeRung, shardRung, applyRung, serverRung},
		func() { checkpoint(); prepare() })
	if rungErr != nil {
		return fmt.Errorf("chain rungs: %w", rungErr)
	}
	m["kv.store_op_ns"] = ns[0]
	m["shard.op_ns"], m["shard.self_ns"] = ns[1], ns[1]-ns[0]
	m["kv.apply_op_ns"], m["kv.apply_self_ns"] = ns[2], ns[2]-ns[1]
	m["kv.server_op_ns"], m["kv.server_self_ns"] = ns[3], ns[3]-ns[2]
	sort.Float64s(gates)
	sort.Float64s(flushes)
	m["core.ckpt_gate_us"] = gates[len(gates)/2]
	m["core.ckpt_flush_us"] = flushes[len(flushes)/2]
	m["core.ckpt_flush_ns_per_line"] = ratio(flushNs, flushLines)

	// The codec alone: build the request, decode it, build the reply the
	// server would send, decode that.
	var rf wire.RespFrame
	value := appendValue(nil, 0, loaderConn, 0)
	m["wire.codec_op_ns"] = l.rung(func() {
		for i := 0; i < n; i += w.depth {
			build(i)
			rd.Reset(rb.Bytes())
			if err := req.Decode(&rd); err != nil {
				rungErr = err
			}
			resp.Reset()
			for range w.depth {
				o, err := req.Next()
				if err != nil {
					rungErr = err
				}
				switch o.Code {
				case wire.OpGet:
					resp.Value(value)
				case wire.OpSet:
					resp.Status(wire.StatusStored)
				default:
					limit, _ := o.ScanArgs()
					mark := resp.BeginEntries()
					for range limit {
						resp.AddEntry(l.key(0), value)
					}
					resp.EndEntries(mark, int(limit))
				}
			}
			rd.Reset(resp.Bytes())
			if err := rf.Decode(&rd); err != nil {
				rungErr = err
			}
			for range w.depth {
				r, err := rf.Next()
				if err != nil {
					rungErr = err
				}
				sink += uint64(len(r.Value))
			}
		}
	}, l.refill)
	if rungErr != nil {
		return fmt.Errorf("codec rung: %w", rungErr)
	}

	// Frames: a full set of the loaded pool, a delta after one more epoch of
	// the workload's writes, and a pool restored from the two.
	base := filepath.Join(dir, "ladder.img")
	snapshot := func() (ms, size, lines float64, err error) {
		t0 := time.Now()
		res, err := pool.SnapshotFrames(base, frame.Params{Compression: frame.CompressFlate})
		if err != nil {
			return 0, 0, 0, err
		}
		for _, r := range res {
			size += float64(r.Info.Bytes)
			lines += float64(r.Info.Lines)
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e6, size, lines, nil
	}
	fullMs, fullBytes, _, err := snapshot()
	if err != nil {
		return err
	}
	shardRung()
	deltaMs, deltaBytes, deltaLines, err := snapshot()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, _, err := shard.OpenPoolFiles(cfg, base); err != nil {
		return err
	}
	m["frame.restore_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	m["frame.full_ms"], m["frame.full_bytes_per_user_byte"] = fullMs, fullBytes/l.sz.userBytes()
	m["frame.delta_ms"], m["frame.delta_bytes_per_dirty_line"] = deltaMs, ratio(deltaBytes, deltaLines)

	// Recovery (the paper's Fig. 12, which kvserver cannot show: SIGKILL
	// loses the simulated NVMM): crash every shard half an epoch after its
	// last checkpoint, with half of the epoch's dirty lines already evicted
	// to NVMM so that there is something to roll back, and recover the pool.
	l.refill()
	for i, o := range l.ops[:n/2] {
		apply(store, i, o)
	}
	pool.Close()
	heaps := make([]*pmem.Heap, pool.NumShards())
	for i := range heaps {
		heaps[i] = pool.Shard(i).Heap
		heaps[i].EvictDirtyFraction(0.5, l.seed+int64(i))
		heaps[i].Crash()
	}
	_, rep, err := shard.Recover(cfg, heaps)
	if err != nil {
		return err
	}
	ms := float64(rep.Duration.Nanoseconds()) / 1e6
	m["core.recover_ms"] = ms
	m["core.recover_cells_per_ms"] = float64(rep.CellsScanned) / ms
	m["core.recover_rollbacks"] = float64(rep.CellsRolledBack)
	return nil
}
