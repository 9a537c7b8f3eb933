package kv

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/wire"
)

// cmdT is one abstract command of the differential stream, spelled by both
// codecs: text renders it as the client's request bytes, bin queues it into
// a wire.ReqBuilder.
type cmdT struct {
	verb  string
	key   string // key, structure name or scan start
	to    string // scan end
	value []byte
	n64   uint64 // expire ms, lrange from
	n32   uint32 // scan limit, lrange count
	sub   []cmdT // multi
}

func (c cmdT) text(w *bytes.Buffer) {
	switch c.verb {
	case "set", "qpush", "lappend":
		fmt.Fprintf(w, "%s %s %d\r\n%s\r\n", c.verb, c.key, len(c.value), c.value)
	case "get", "delete", "qpop", "ttl":
		fmt.Fprintf(w, "%s %s\r\n", c.verb, c.key)
	case "scan":
		fmt.Fprintf(w, "scan %s %s %d\r\n", c.key, c.to, c.n32)
	case "lrange":
		fmt.Fprintf(w, "lrange %s %d %d\r\n", c.key, c.n64, c.n32)
	case "expire":
		fmt.Fprintf(w, "expire %s %d\r\n", c.key, c.n64)
	case "multi":
		fmt.Fprintf(w, "multi %d\r\n", len(c.sub))
		for _, s := range c.sub {
			s.text(w)
		}
	}
}

func (c cmdT) bin(b *wire.ReqBuilder) {
	switch c.verb {
	case "set":
		b.Set(c.key, c.value)
	case "get":
		b.Get(c.key)
	case "delete":
		b.Delete(c.key)
	case "scan":
		b.Scan(c.key, c.to, c.n32)
	case "qpush":
		b.QPush(c.key, c.value)
	case "qpop":
		b.QPop(c.key)
	case "lappend":
		b.LAppend(c.key, c.value)
	case "lrange":
		b.LRange(c.key, c.n64, c.n32)
	case "expire":
		b.Expire(c.key, c.n64)
	case "ttl":
		b.TTL(c.key)
	case "multi":
		b.SetAtomic()
		for _, s := range c.sub {
			s.bin(b)
		}
	}
}

// twoShards is the smallest store with more than one shard: two gated
// stores routed by the key's hash parity, so the stream can reach the
// cross-shard refusal without importing internal/shard.
type twoShards struct {
	*GatedStore // shard 0; the routed methods below shadow it
	g           [2]*GatedStore
}

func (s *twoShards) BatchShard(key string) int { return int(FNV1a(key) & 1) }
func (s *twoShards) at(key string) *GatedStore { return s.g[s.BatchShard(key)] }

func (s *twoShards) Set(th int, k string, v []byte)         { s.at(k).Set(th, k, v) }
func (s *twoShards) Get(th int, k string) ([]byte, bool)    { return s.at(k).Get(th, k) }
func (s *twoShards) Delete(th int, k string) bool           { return s.at(k).Delete(th, k) }
func (s *twoShards) QPush(th int, k string, v []byte) error { return s.at(k).QPush(th, k, v) }
func (s *twoShards) QPop(th int, k string) ([]byte, bool, error) {
	return s.at(k).QPop(th, k)
}
func (s *twoShards) LAppend(th int, k string, v []byte) (uint64, error) {
	return s.at(k).LAppend(th, k, v)
}
func (s *twoShards) LRange(th int, k string, from uint64, n uint32) ([][]byte, error) {
	return s.at(k).LRange(th, k, from, n)
}
func (s *twoShards) Expire(th int, k string, ms uint64) bool { return s.at(k).Expire(th, k, ms) }
func (s *twoShards) TTL(th int, k string) (uint64, bool)     { return s.at(k).TTL(th, k) }
func (s *twoShards) Batch(th, si int, f func(*RespctStore))  { s.g[si].Batch(th, 0, f) }

// Scan concatenates the shards' runs and sorts them: enough for a
// deterministic, codec-independent answer.
func (s *twoShards) Scan(th int, from, to string, limit int) []Entry {
	out := append(s.g[0].Scan(th, from, to, limit), s.g[1].Scan(th, from, to, limit)...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// diffSide is one of the two identically built stores, with everything the
// comparison reads: the runtimes (for inline checkpoints), the bare stores
// (for logical snapshots) and the persistence trace of both heaps.
type diffSide struct {
	sf    surface
	rts   [2]*core.Runtime
	bare  [2]*RespctStore
	rec   *pmem.Recorder
	clock uint64
}

func newDiffSide(t *testing.T, structures bool) *diffSide {
	t.Helper()
	d := &diffSide{rec: pmem.NewRecorder(), clock: 1000}
	ts := &twoShards{}
	for i := range d.bare {
		h := pmem.New(pmem.Config{Size: 64 << 20, Chaos: true, Seed: int64(i) + 1})
		rt, err := core.NewRuntime(h, core.Config{Threads: 1, SerialFlush: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewRespctStoreOpts(rt, 0, StoreOptions{Buckets: 256, Structures: structures,
			Clock: func() uint64 { return d.clock }})
		if err != nil {
			t.Fatal(err)
		}
		d.rts[i], d.bare[i], ts.g[i] = rt, st, Gate(st)
		rt.Checkpoint()
		d.rec.Attach(h)
	}
	ts.GatedStore = ts.g[0]
	d.sf = surfaceOf(ts)
	return d
}

// snapshot merges the shards' logical contents, shard-prefixing the keys.
func (d *diffSide) snapshot() map[string]string {
	out := map[string]string{}
	for i, st := range d.bare {
		for k, v := range st.SnapshotLogical() {
			out[fmt.Sprintf("%d/%s", i, k)] = v
		}
	}
	return out
}

// cloneResult deep-copies r so it survives the codec's buffer reuse.
func cloneResult(r *result) result {
	c := result{status: r.status, n64: r.n64, value: bytes.Clone(r.value)}
	for _, e := range r.entries {
		c.entries = append(c.entries, Entry{Key: strings.Clone(e.Key), Value: bytes.Clone(e.Value)})
	}
	for _, rec := range r.records {
		c.records = append(c.records, bytes.Clone(rec))
	}
	for i := range r.sub {
		c.sub = append(c.sub, cloneResult(&r.sub[i]))
	}
	return c
}

// viaText runs c through the text codec: request bytes → decode → execute →
// toText. closed reports that the codec closed the connection instead.
func (d *diffSide) viaText(c cmdT) (res result, reply string, closed bool) {
	var req, out bytes.Buffer
	c.text(&req)
	tc := &textConn{s: &Server{sf: d.sf}, r: bufio.NewReader(&req), w: bufio.NewWriter(&out)}
	run, keep := tc.decode()
	if run {
		d.sf.execute(0, &tc.o, &tc.res)
		tc.res.toText(&tc.o, tc.w, &tc.num)
	}
	tc.w.Flush()
	return cloneResult(&tc.res), out.String(), !keep
}

// viaBinary runs c through the binary codec: request frame → fromFrame →
// execute → toWire, the three calls applyFrame makes.
func (d *diffSide) viaBinary(t *testing.T, c cmdT) (res result, frame []byte) {
	t.Helper()
	var b wire.ReqBuilder
	c.bin(&b)
	var f wire.ReqFrame
	if err := f.Decode(bytes.NewReader(b.Bytes())); err != nil {
		t.Fatal(err)
	}
	var o op
	var r result
	var resp wire.RespBuilder
	if _, err := o.fromFrame(&f, f.Ops()); err != nil {
		t.Fatal(err)
	}
	d.sf.execute(0, &o, &r)
	r.toWire(&o, &resp)
	return cloneResult(&r), bytes.Clone(resp.Bytes())
}

// diffStream is the seeded op stream: every registry verb, the type
// conflicts, oversized payloads, and same- and cross-shard batches.
func diffStream(rng *rand.Rand, n int) []cmdT {
	key := func() string { return fmt.Sprintf("key-%02d", rng.Intn(24)) }
	val := func() []byte { return []byte(fmt.Sprintf("v%06d", rng.Intn(1e6))) }
	// The names are bound up front — q* to queues, l* to logs — so the type
	// conflicts below are conflicts whatever the seed.
	names := []string{"qa", "qb", "la", "lb"}
	out := []cmdT{{verb: "qpush", key: "qa", value: val()}, {verb: "qpush", key: "qb", value: val()},
		{verb: "lappend", key: "la", value: val()}, {verb: "lappend", key: "lb", value: val()}}
	for len(out) < n {
		switch rng.Intn(16) {
		case 0, 1, 2:
			out = append(out, cmdT{verb: "set", key: key(), value: val()})
		case 3:
			out = append(out, cmdT{verb: "get", key: key()})
		case 4:
			out = append(out, cmdT{verb: "delete", key: key()})
		case 5:
			out = append(out, cmdT{verb: "scan", key: key(), to: "key-99", n32: uint32(1 + rng.Intn(8))})
		case 6:
			out = append(out, cmdT{verb: "qpush", key: names[rng.Intn(2)], value: val()})
		case 7:
			out = append(out, cmdT{verb: "qpop", key: names[rng.Intn(2)]})
		case 8:
			out = append(out, cmdT{verb: "lappend", key: names[2+rng.Intn(2)], value: val()})
		case 9:
			out = append(out, cmdT{verb: "lrange", key: names[2+rng.Intn(2)], n64: uint64(rng.Intn(4)), n32: uint32(rng.Intn(5))})
		case 10:
			out = append(out, cmdT{verb: "expire", key: key(), n64: uint64(rng.Intn(3))})
		case 11:
			out = append(out, cmdT{verb: "ttl", key: key()})
		case 12: // WRONGTYPE: a queue verb on a log name and vice versa
			out = append(out,
				cmdT{verb: "qpush", key: names[2+rng.Intn(2)], value: val()},
				cmdT{verb: "lrange", key: names[rng.Intn(2)], n32: 2})
		case 13: // oversized payloads
			big := bytes.Repeat([]byte("x"), maxValueBytes+1)
			out = append(out, cmdT{verb: "set", key: key(), value: big}, cmdT{verb: "lappend", key: "la", value: big})
		default: // a batch over random keys: same-shard by luck, else cross-shard
			m := cmdT{verb: "multi"}
			for i := 1 + rng.Intn(4); i > 0; i-- {
				switch rng.Intn(4) {
				case 0:
					m.sub = append(m.sub, cmdT{verb: "get", key: key()})
				case 1:
					m.sub = append(m.sub, cmdT{verb: "delete", key: key()})
				case 2:
					m.sub = append(m.sub, cmdT{verb: "expire", key: key(), n64: uint64(rng.Intn(3))})
				default:
					m.sub = append(m.sub, cmdT{verb: "set", key: key(), value: val()})
				}
			}
			out = append(out, m)
		}
	}
	return out
}

// TestCodecsAgree is the differential test behind "two codecs, one
// executor": one seeded op stream runs through the text codec against one
// store and through the binary codec against an identically built one, with
// inline checkpoints at the same positions. Every command must produce the
// same result struct, and at the end the two stores must hold the same
// logical contents and have issued the same persistence trace.
func TestCodecsAgree(t *testing.T) {
	txt, bin := newDiffSide(t, true), newDiffSide(t, true)
	seen := map[byte]bool{}
	statuses := map[byte]int{}
	for i, c := range diffStream(rand.New(rand.NewSource(12)), 1500) {
		tr, reply, closed := txt.viaText(c)
		br, _ := bin.viaBinary(t, c)
		if closed {
			t.Fatalf("op %d %+v: text codec closed the connection (%q)", i, c, reply)
		}
		if !reflect.DeepEqual(tr, br) {
			t.Fatalf("op %d %s %s: results differ\n  text:   %+v\n  binary: %+v", i, c.verb, c.key, tr, br)
		}
		seen[lookupVerb([]byte(c.verb)).Opcode] = true
		statuses[tr.status]++
		if i%64 == 63 {
			for s := range txt.rts {
				txt.rts[s].Checkpoint()
				bin.rts[s].Checkpoint()
			}
			txt.clock++
			bin.clock++
		}
	}
	for _, c := range Commands() {
		if !seen[c.Opcode] {
			t.Errorf("stream never issued %q", c.Verb)
		}
	}
	for _, st := range []byte{wire.StatusWrongType, wire.StatusTooLarge, statusCrossShard, statusBatch,
		wire.StatusEmpty, wire.StatusNotFound, wire.StatusTTL, wire.StatusAppended, wire.StatusEntries} {
		if statuses[st] == 0 {
			t.Errorf("stream never produced status 0x%02x", st)
		}
	}

	// A scan inside a batch: the binary codec refuses the frame whole; text
	// MULTI cannot spell it, so its codec closes the connection. Neither
	// executes the set that rides along (the final comparison proves it).
	scanBatch := cmdT{verb: "multi", sub: []cmdT{
		{verb: "set", key: "refused", value: []byte("x")},
		{verb: "scan", key: "key-00", to: "key-99", n32: 4}}}
	if br, frame := bin.viaBinary(t, scanBatch); br.status != wire.StatusRefused {
		t.Errorf("binary scan-in-batch = %+v", br)
	} else {
		var rf wire.RespFrame
		if err := rf.Decode(bytes.NewReader(frame)); err != nil || rf.Ops() != 2 {
			t.Fatalf("refused batch's frame: %d ops, %v", rf.Ops(), err)
		}
		for i := 0; i < rf.Ops(); i++ {
			if r, _ := rf.Next(); r.Status != wire.StatusRefused {
				t.Errorf("refused batch op %d status 0x%02x", i, r.Status)
			}
		}
	}
	if _, reply, closed := txt.viaText(scanBatch); !closed || reply != "CLIENT_ERROR bad multi\r\n" {
		t.Errorf("text scan-in-batch: closed=%v reply=%q", closed, reply)
	}

	if ts, bs := txt.snapshot(), bin.snapshot(); !reflect.DeepEqual(ts, bs) {
		t.Errorf("logical contents differ:\n  text:   %v\n  binary: %v", ts, bs)
	}
	te, be := txt.rec.Events(), bin.rec.Events()
	if len(te) == 0 || len(te) != len(be) || pmem.TraceHash(te) != pmem.TraceHash(be) {
		t.Errorf("persistence traces differ: %d events %x vs %d events %x",
			len(te), pmem.TraceHash(te), len(be), pmem.TraceHash(be))
	}
}

// TestCodecsAgreeStructuresDisabled: on stores without the surface every
// structure verb, batches included, draws the same refusal from both codecs
// and the plain verbs still agree.
func TestCodecsAgreeStructuresDisabled(t *testing.T) {
	txt, bin := newDiffSide(t, false), newDiffSide(t, false)
	big := bytes.Repeat([]byte("x"), maxValueBytes+1)
	for _, c := range []cmdT{
		{verb: "set", key: "k", value: []byte("v")},
		{verb: "get", key: "k"},
		{verb: "scan", key: "a", to: "z", n32: 3},
		{verb: "qpush", key: "q", value: []byte("v")},
		{verb: "qpush", key: "q", value: big}, // refused outranks too-large
		{verb: "qpop", key: "q"},
		{verb: "lappend", key: "l", value: []byte("v")},
		{verb: "lrange", key: "l", n32: 1},
		{verb: "expire", key: "k", n64: 5},
		{verb: "ttl", key: "k"},
		{verb: "multi", sub: []cmdT{{verb: "set", key: "k", value: []byte("w")}}},
		{verb: "delete", key: "k"},
	} {
		tr, reply, closed := txt.viaText(c)
		br, _ := bin.viaBinary(t, c)
		if closed || !reflect.DeepEqual(tr, br) {
			t.Fatalf("%s: closed=%v\n  text:   %+v\n  binary: %+v", c.verb, closed, tr, br)
		}
		needs := lookupVerb([]byte(c.verb)).Structures
		if needs != (tr.status == wire.StatusRefused) {
			t.Errorf("%s: status 0x%02x, needs structures = %v", c.verb, tr.status, needs)
		}
		if needs && reply != "SERVER_ERROR structures disabled\r\n" {
			t.Errorf("%s: text reply %q", c.verb, reply)
		}
	}
	if ts, bs := txt.snapshot(), bin.snapshot(); !reflect.DeepEqual(ts, bs) || len(ts) != 0 {
		t.Errorf("logical contents: text %v binary %v, want both empty", ts, bs)
	}
}

// TestCommandsExecutable walks the registry: every row must decode through
// both codecs into an op the executor has a case for — a row cannot exist
// without an executor case (the executor would leave status 0), nor an
// executor case without a row (the codecs could not produce its op).
func TestCommandsExecutable(t *testing.T) {
	d := newDiffSide(t, true)
	for _, c := range Commands() {
		cmd := cmdT{verb: c.Verb, key: "key-00", to: "key-99", value: []byte("v"), n32: 1}
		switch {
		case c.Opcode == opMulti:
			cmd.sub = []cmdT{{verb: "set", key: "key-00", value: []byte("v")}}
		case c.Structures && c.Verb[0] == 'q':
			cmd.key = "q"
		case c.Structures && c.Verb[0] == 'l':
			cmd.key = "l"
		}
		tr, reply, closed := d.viaText(cmd)
		br, frame := d.viaBinary(t, cmd)
		if closed || tr.status == 0 || reply == "" {
			t.Errorf("%s via text: status 0x%02x reply %q closed=%v", c.Verb, tr.status, reply, closed)
		}
		if br.status == 0 || len(frame) <= wire.HeaderLen {
			t.Errorf("%s via binary: status 0x%02x, %d-byte frame", c.Verb, br.status, len(frame))
		}
		if byCode[c.Opcode].Verb != c.Verb {
			t.Errorf("%s: opcode 0x%02x indexes %q", c.Verb, c.Opcode, byCode[c.Opcode].Verb)
		}
	}
}

// TestApplyFrameAddsNoAllocations is the allocation gate on the executor:
// running a frame through ApplyFrame over a gated store must allocate
// exactly what the same Store calls allocate made directly — the op and
// result structs, the codec and the gating add nothing.
func TestApplyFrameAddsNoAllocations(t *testing.T) {
	s := newStructStore(t, &fakeClock{now: 1000})
	g := Gate(s)
	for i := 0; i < 64; i++ {
		g.Set(0, fmt.Sprintf("key-%02d", i), []byte("value-0123456789"))
	}
	frame := func(build func(b *wire.ReqBuilder)) *wire.ReqFrame {
		var b wire.ReqBuilder
		build(&b)
		f := new(wire.ReqFrame)
		if err := f.Decode(bytes.NewReader(b.Bytes())); err != nil {
			t.Fatal(err)
		}
		return f
	}
	val := []byte("value-9876543210")
	for _, tc := range []struct {
		name   string
		f      *wire.ReqFrame
		direct func()
	}{
		{"get+set", frame(func(b *wire.ReqBuilder) { b.Get("key-07"); b.Set("key-08", val); b.Get("absent") }),
			func() { g.Get(0, "key-07"); g.Set(0, "key-08", val); g.Get(0, "absent") }},
		{"scan", frame(func(b *wire.ReqBuilder) { b.Scan("key-10", "key-40", 16) }),
			func() { g.Scan(0, "key-10", "key-40", 16) }},
	} {
		var resp wire.RespBuilder
		viaFrame := func() {
			tc.f.Rewind()
			resp.Reset()
			if err := ApplyFrame(g, 0, tc.f, &resp); err != nil {
				t.Fatal(err)
			}
		}
		viaFrame() // size resp's buffer
		want, got := testing.AllocsPerRun(200, tc.direct), testing.AllocsPerRun(200, viaFrame)
		if got != want {
			t.Errorf("%s frame: ApplyFrame allocates %.0f/run, the direct Store calls %.0f", tc.name, got, want)
		}
	}
}
