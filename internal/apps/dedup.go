package apps

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// Dedup (Parsec): a data-processing pipeline — produce chunks, deduplicate
// them against a hash table, "compress" the unique ones, write the results —
// whose stages synchronise through bounded queues built on condition
// variables. It is the paper's heavily lock-based application and the
// showcase for the Fig. 7 checkpoint_allow/checkpoint_prevent protocol.
//
// The pipeline has three stages:
//
//	producer (1 thread) -> dedup+compress workers (threads-2) -> writer (1)
//
// Chunk i's content class is i % uniqueChunks, so the duplicate ratio is
// controlled; compression cost is simulated compute. The persistent variant
// keeps the dedup table (a RespctMap) and its job — the per-chunk result
// cells and the done flag — in NVMM; recovery re-derives the missing chunks
// from the result cells and replays only those, idempotently.

// DedupResult summarises a dedup run.
type DedupResult struct {
	Chunks      int
	Unique      int
	TotalOutput uint64
}

func chunkHash(seed uint64, class int) uint64 {
	h := xorshift64(seed ^ uint64(class)*0x100000001B3)
	if h == 0 {
		h = 1
	}
	return h
}

func compressedSize(h uint64) uint64 { return 100 + h%156 }

const dupRefSize = 8 // bytes written for a duplicate: a reference

// dedupCompute simulates the compression cost of a unique chunk.
func dedupCompute() { pmem.Spin(400) }

// DedupTransient runs the transient pipeline. It uses the same stages and
// mutex+condition-variable bounded queues as the persistent variant (like
// the pthread queues of the Parsec original), so the comparison measures
// persistence cost rather than pipeline differences.
func DedupTransient(nChunks, uniqueChunks, threads int, seed uint64) DedupResult {
	threads = max(threads, 3)
	seen := make(map[uint64]bool)
	var seenMu sync.Mutex
	sizes := make([]uint64, nChunks)
	p := newPipeline(nChunks, uniqueChunks, threads, seed)
	p.claim = func(_ *core.Thread, hash uint64, _ int) bool {
		seenMu.Lock()
		defer seenMu.Unlock()
		first := !seen[hash]
		seen[hash] = true
		return first
	}
	p.pending = func(int) bool { return true }
	p.record = func(_ *core.Thread, id int, size uint64) { sizes[id] = size }
	fanOut(threads, func(th int) { p.stage(nil, th) })
	return foldSizes(nChunks, func(i int) uint64 { return sizes[i] })
}

// boundedQueue is a cond-var ring buffer whose waits follow the paper's
// Fig. 7 protocol: an RP immediately before the critical section and
// allow/prevent around the wait.
type boundedQueue struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	buf      []uint64
	head     int
	count    int
	closed   bool
}

func newBoundedQueue(capacity int) *boundedQueue {
	q := &boundedQueue{buf: make([]uint64, capacity)}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

const rpDedupQueue uint64 = 0x4464757051

// push inserts v, blocking while full. t may be nil (transient use).
func (q *boundedQueue) push(t *core.Thread, v uint64) {
	if t != nil {
		t.RP(rpDedupQueue)
	}
	q.mu.Lock()
	for q.count == len(q.buf) {
		wait(t, q.notFull)
	}
	q.buf[(q.head+q.count)%len(q.buf)] = v
	q.count++
	q.mu.Unlock()
	q.notEmpty.Signal()
}

// pop removes a value, blocking while empty; ok=false after close+drain.
func (q *boundedQueue) pop(t *core.Thread) (uint64, bool) {
	if t != nil {
		t.RP(rpDedupQueue)
	}
	q.mu.Lock()
	for q.count == 0 && !q.closed {
		wait(t, q.notEmpty)
	}
	if q.count == 0 {
		q.mu.Unlock()
		return 0, false
	}
	v := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.mu.Unlock()
	q.notFull.Signal()
	return v, true
}

// wait blocks on c, inside an allow window when t is not nil.
func wait(t *core.Thread, c *sync.Cond) {
	if t != nil {
		t.CondWait(c, c.L)
	} else {
		c.Wait()
	}
}

func (q *boundedQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
}

const rpDedupChunk uint64 = 0x446475704368756e

// pipeline is one run of the three stages. Its hooks are where the two
// variants differ: claim records hash's owner (true when chunk id owns it),
// pending says whether chunk i still needs a result, and record stores one.
// t is nil in the transient variant.
type pipeline struct {
	nChunks, unique, threads int
	seed                     uint64
	chunkQ, resultQ          *boundedQueue
	workers                  atomic.Int32 // dedup workers still running
	claim                    func(t *core.Thread, hash uint64, id int) bool
	pending                  func(i int) bool
	record                   func(t *core.Thread, id int, size uint64)
}

func newPipeline(nChunks, unique, threads int, seed uint64) *pipeline {
	p := &pipeline{nChunks: nChunks, unique: unique, threads: threads, seed: seed,
		chunkQ: newBoundedQueue(64), resultQ: newBoundedQueue(64)}
	p.workers.Store(int32(threads - 2))
	return p
}

// stage runs thread th's stage: the producer is thread 0, the writer the
// last thread, and the dedup+compress workers the ones in between.
func (p *pipeline) stage(t *core.Thread, th int) {
	rp := func() {
		if t != nil {
			t.RP(rpDedupChunk) // after the logical block (paper §5.3)
		}
	}
	switch th {
	case 0:
		for i := 0; i < p.nChunks; i++ {
			if p.pending(i) {
				p.chunkQ.push(t, uint64(i)+1) // ids shifted: 0 is the close marker
			}
		}
		p.chunkQ.close()
	case p.threads - 1:
		for v, ok := p.resultQ.pop(t); ok; v, ok = p.resultQ.pop(t) {
			p.record(t, int(v>>16), v&0xFFFF)
			rp()
		}
	default:
		for v, ok := p.chunkQ.pop(t); ok; v, ok = p.chunkQ.pop(t) {
			id := int(v - 1)
			hash := chunkHash(p.seed, id%p.unique)
			size := uint64(dupRefSize)
			if p.claim(t, hash, id) {
				dedupCompute()
				size = compressedSize(hash)
			}
			rp()
			p.resultQ.push(t, uint64(id)<<16|size)
		}
		if p.workers.Add(-1) == 0 {
			p.resultQ.close()
		}
	}
}

// foldSizes sums the per-chunk output sizes (0: chunk not done).
func foldSizes(nChunks int, size func(i int) uint64) DedupResult {
	res := DedupResult{Chunks: nChunks}
	for i := 0; i < nChunks; i++ {
		s := size(i)
		res.TotalOutput += s
		if s != 0 && s != dupRefSize {
			res.Unique++
		}
	}
	return res
}

// DedupRespct is the persistent pipeline. Job cell i is chunk i's output
// size, 0 until the writer records it.
type DedupRespct struct {
	*job
	table   *structures.RespctMap
	nChunks int
	unique  int
	seed    uint64
}

// NewDedup creates the persistent pipeline state: the dedup table under
// rootIdx, the job under rootIdx+1. Construct before starting the
// checkpointer.
func NewDedup(rt *core.Runtime, rootIdx, nChunks, uniqueChunks, buckets int, seed uint64) (*DedupRespct, error) {
	if rt.Threads() < 3 {
		return nil, fmt.Errorf("apps: dedup needs at least 3 threads")
	}
	table, err := structures.NewRespctMap(rt, rootIdx, buckets)
	if err != nil {
		return nil, err
	}
	// The per-chunk results are InCLL cells, not raw words: a result's value
	// depends on the dedup table's state (who owned the hash first), so a
	// result written in a crashed epoch must roll back together with the
	// table — the write-after-read rule of §3.3.2 applied transitively.
	j, err := newJob(rt, "Dedup", rootIdx+1, nChunks, uint64(nChunks), uint64(uniqueChunks), seed)
	if err != nil {
		return nil, err
	}
	return openedDedup(j, table), nil
}

// OpenDedup reattaches after recovery.
func OpenDedup(rt *core.Runtime, rootIdx int) (*DedupRespct, error) {
	table, err := structures.OpenRespctMap(rt, rootIdx)
	if err != nil {
		return nil, err
	}
	j, err := openJob(rt, "Dedup", rootIdx+1)
	if err != nil {
		return nil, err
	}
	return openedDedup(j, table), nil
}

func openedDedup(j *job, table *structures.RespctMap) *DedupRespct {
	return &DedupRespct{job: j, table: table, nChunks: int(j.param(0)), unique: int(j.param(1)), seed: j.param(2)}
}

// Run executes (or resumes) the pipeline: only chunks without a persisted
// result are replayed, and replay is idempotent (the dedup table names a
// canonical owner per content hash, and table and result cells roll back to
// the same checkpoint together).
func (d *DedupRespct) Run() DedupResult {
	p := newPipeline(d.nChunks, d.unique, d.threads, d.seed)
	p.claim = func(t *core.Thread, hash uint64, id int) bool {
		owner, _ := d.table.InsertIfAbsent(t.ID(), hash, uint64(id)+1)
		return owner == uint64(id)+1
	}
	p.pending = func(i int) bool { return d.rt.Read(d.cell(i)) == 0 }
	p.record = func(t *core.Thread, id int, size uint64) { t.Update(d.cell(id), size) }
	d.run(p.stage)
	return d.Result()
}

// Result folds the persistent result cells.
func (d *DedupRespct) Result() DedupResult {
	return foldSizes(d.nChunks, func(i int) uint64 { return d.rt.Read(d.cell(i)) })
}

// Remaining counts chunks without a recorded result (0 when complete).
func (d *DedupRespct) Remaining() int {
	done, total := d.Progress()
	return total - done
}

// Progress returns the chunks with a recorded result and the chunks in all.
func (d *DedupRespct) Progress() (done, total int) {
	for _, size := range d.Cells() {
		if size != 0 {
			done++
		}
	}
	return done, d.nChunks
}

// Table returns the persistent dedup table.
func (d *DedupRespct) Table() *structures.RespctMap { return d.table }
