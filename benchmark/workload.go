package main

import (
	"encoding/binary"
	"math"
	"strconv"
	"time"
)

// A workload is one traffic mix against one server configuration. The names
// are final: later issues cite them, and BENCHMARK.json lists them with the
// same why (TestBenchmarkJSONMatchesTables keeps the two in step).
type workload struct {
	name string
	why  string

	text     bool    // text protocol; otherwise binary frames
	depth    int     // operations per request
	getFrac  float64 // share of gets
	scanFrac float64 // share of scans; the remainder are sets
	zipfian  bool    // scrambled zipfian keys; otherwise uniform

	shards int  // kvserver -shards
	async  bool // kvserver -async

	openRate float64       // open-loop diagnostic rate, ops/s
	stall    time.Duration // a request slower than this counts towards client.stall_frac
	epochOps int           // operations in one 64 ms epoch at the seed's throughput (ladder replay unit)
	refOps   float64       // the reference server's usual throughput on this traffic, ops/s: host speed 1
}

var workloads = []workload{
	{
		name: "point-text",
		why:  "text depth 1, 95% get / 5% set, zipfian: the per-request path (TCP, parse, two channel hops) does the work and the hot set fits the write-combining cache",
		text: true, depth: 1, getFrac: 0.95, zipfian: true, shards: 1,
		openRate: 15000, stall: time.Millisecond, epochOps: 2432, refOps: 41_000,
	},
	{
		name:  "write-batch",
		why:   "binary 64 ops/frame, 10% get / 90% set, uniform: store, structures, tracking and pmem do the work; writes overflow the write-combining cache so p99 is the checkpoint pause",
		depth: 64, getFrac: 0.10, shards: 1,
		openRate: 40000, stall: 10 * time.Millisecond, epochOps: 88 * 64, refOps: 950_000,
	},
	{
		name:  "write-batch-async4",
		why:   "write-batch traffic on -shards 4 -async: routing, staggered checkpoints, cut plus background drain, collision log; a flush-path gain that costs the async path moves the two opposite ways",
		depth: 64, getFrac: 0.10, shards: 4, async: true,
		openRate: 40000, stall: 10 * time.Millisecond, epochOps: 127 * 64, refOps: 950_000,
	},
	{
		name:  "scan-mix",
		why:   "binary depth 1, 95% scan (zipfian start, limit 1-100) / 5% set: reads the ordered index the write workloads only maintain; skiplist walk plus entries encoding",
		depth: 1, scanFrac: 0.95, zipfian: true, shards: 1,
		openRate: 4000, stall: time.Millisecond, epochOps: 672, refOps: 28_000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// serverFlags are the workload's own kvserver flags; run.start adds the sizing
// every workload shares.
func (w *workload) serverFlags() []string {
	f := []string{"-shards", strconv.Itoa(w.shards)}
	if w.async {
		f = append(f, "-async")
	}
	return f
}

// sizing is everything about a run that is not the workload: full scale for
// measurements, smoke scale for the tier-1 plumbing test.
type sizing struct {
	records   int
	heapBytes int64
	buckets   int
	warmup    time.Duration
	openLoop  time.Duration
	setupReps int           // setup_s is the median of this many server start+load cycles
	rung      time.Duration // wall budget of one ladder rung, its untimed refills and checkpoints included
	rungOps   int           // op cap of one ladder rung (0 = budget only)
}

const (
	keyLen       = 16  // "user%012d"
	valueLen     = 100 // 17-byte stamp + filler
	ckptInterval = 64 * time.Millisecond
	clientConns  = 2   // nproc is 2: one goroutine per connection
	loaderConn   = 255 // connection byte stamped into loaded values
)

var (
	fullSizing = sizing{
		records: 200_000, heapBytes: 512 << 20, buckets: 262144,
		warmup: 500 * time.Millisecond, openLoop: 3 * time.Second, setupReps: 3,
		rung: 250 * time.Millisecond,
	}
	smokeSizing = sizing{
		records: 2_000, heapBytes: 64 << 20, buckets: 4096,
		warmup: 200 * time.Millisecond, openLoop: time.Second, setupReps: 1,
		rung: 100 * time.Millisecond, rungOps: 10_000,
	}
)

func (s sizing) userBytes() float64 { return float64(s.records) * (keyLen + valueLen) }

// splitmix is the generator's only source of randomness: seeded from the
// -seed flag, the connection and the phase, never from the clock, so one
// seed always yields one op stream.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// zipf is YCSB's scrambled zipfian chooser (theta 0.99) over [0, items).
type zipf struct {
	items             uint64
	zetan, alpha, eta float64
	second            float64 // rank 1's share of zetan: 0.5^theta
}

func newZipf(items int) *zipf {
	const theta = 0.99
	zeta := func(n int) float64 {
		sum := 0.0
		for i := 1; i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &zipf{items: uint64(items), zetan: zeta(items), alpha: 1 / (1 - theta), second: math.Pow(0.5, theta)}
	z.eta = (1 - math.Pow(2/float64(items), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) pick(rng *splitmix) int {
	u := rng.float()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+z.second:
		rank = 1
	default:
		rank = uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.items {
		rank = z.items - 1
	}
	h := rank * 0x9E3779B97F4A7C15 // scramble: hot ranks scatter over the key space
	h ^= h >> 29
	return int(h % z.items)
}

// Operation kinds. They double as the per-kind index of the client stats.
const (
	opGet = iota
	opSet
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "set", "scan"}

// op is one generated operation.
type op struct {
	kind  int
	key   int    // record index (scan: start key)
	limit int    // scan only
	seq   uint64 // set only: the connection's write sequence number
}

// gen yields one connection's op stream for one traffic phase of a run (the
// phases are numbered in the order the run begins them).
type gen struct {
	w       *workload
	records int
	conn    byte
	rng     splitmix
	z       *zipf
	seq     *uint64 // per-connection write sequence, shared across phases
}

func newGen(w *workload, records int, z *zipf, seed int64, conn, phase int, seq *uint64) *gen {
	s := splitmix(uint64(seed)*0x9E3779B97F4A7C15 + uint64(conn)<<32 + uint64(phase))
	s.next()
	return &gen{w: w, records: records, conn: byte(conn), rng: s, z: z, seq: seq}
}

func (g *gen) next() op {
	var o op
	if g.w.zipfian {
		o.key = g.z.pick(&g.rng)
	} else {
		o.key = g.rng.intn(g.records)
	}
	switch p := g.rng.float(); {
	case p < g.w.scanFrac:
		o.kind, o.limit = opScan, 1+g.rng.intn(100)
	case p < g.w.scanFrac+g.w.getFrac:
		o.kind = opGet
	default:
		*g.seq++
		o.kind, o.seq = opSet, *g.seq
	}
	return o
}

// appendKey renders record index i as "user%012d" without fmt.
func appendKey(dst []byte, i int) []byte {
	var d [12]byte
	for p := 11; p >= 0; p-- {
		d[p] = byte('0' + i%10)
		i /= 10
	}
	return append(append(dst, "user"...), d[:]...)
}

// parseKey inverts appendKey; ok is false for anything that is not one of
// the benchmark's keys.
func parseKey(b []byte) (int, bool) {
	if len(b) != keyLen || string(b[:4]) != "user" {
		return 0, false
	}
	n := 0
	for _, c := range b[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// appendValue renders the value written to key by connection conn as its
// seq-th write: [u64 key][u8 conn][u64 seq] plus filler derived from the
// three, so a value names its key and its writer and no two writes carry
// the same bytes.
func appendValue(dst []byte, key int, conn byte, seq uint64) []byte {
	var stamp [17]byte
	binary.LittleEndian.PutUint64(stamp[0:], uint64(key))
	stamp[8] = conn
	binary.LittleEndian.PutUint64(stamp[9:], seq)
	dst = append(dst, stamp[:]...)
	f := splitmix(uint64(key)<<20 ^ seq<<8 ^ uint64(conn))
	for i := len(stamp); i < valueLen; i += 8 {
		x := f.next()
		for j := 0; j < 8 && i+j < valueLen; j++ {
			dst = append(dst, 'a'+byte(x>>(8*j))%26)
		}
	}
	return dst
}

// valueStamp reads back what appendValue stamped; ok is false when v is not
// exactly the value that stamp produces (wrong length or damaged filler).
func valueStamp(v []byte) (key int, conn byte, seq uint64, ok bool) {
	if len(v) != valueLen {
		return 0, 0, 0, false
	}
	key = int(binary.LittleEndian.Uint64(v[0:]))
	conn = v[8]
	seq = binary.LittleEndian.Uint64(v[9:])
	var want [valueLen]byte
	return key, conn, seq, string(appendValue(want[:0], key, conn, seq)) == string(v)
}
