package core

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/respct/respct/internal/pmem"
)

// The flush engine: the one routine that writes a checkpoint's tracked lines
// back to NVMM, for the synchronous flush_modified (workers parked) and for
// the asynchronous drain (workers running) alike.
//
// The tracked lists are gathered and partitioned by heap-line range into
// chunks — disjoint, ascending spans of the heap, several per flusher — and up
// to GOMAXPROCS flushers steal chunks off a cursor. How many flushers run is
// therefore a function of how much there is to flush, never of how many
// threads happened to write it. Inside a chunk the lines are sorted and
// walked in ascending order one pending-bitmap word (64 lines) at a time:
// duplicates coalesce in the word's mask, spans freed during the ending epoch
// (deadRanges) are elided by a merge walk, and under AsyncFlush one atomic
// claim per word arbitrates every surviving line against flush-on-collision
// workers. A line belongs to exactly one chunk, so exactly one flusher writes
// it back, and the persistent image is the same for any flusher count.
//
// Each flusher takes its chunks in ascending order, so what it queues is
// already sorted and de-duplicated and its single fence writes back without
// sorting again. With one flusher (Config.SerialFlush, or too little work to
// share) that is one fence over the ascending line sequence of the whole
// checkpoint, on the calling goroutine, with no allocation in steady state —
// the deterministic schedule the crash-point explorer records.
type flushEngine struct {
	heap     *pmem.Heap
	flushers []*pmem.Flusher // grown on demand, reused across checkpoints
	lines    []uint64        // the flush's heap-line numbers, grouped by chunk
	ends     []int           // chunk c is lines[ends[c-1]:ends[c]]

	// State of the flush in progress, shared by its flushers.
	dead   []deadRange
	pend   []atomic.Uint64 // pending-line bitmap to claim from; nil when synchronous
	cursor atomic.Int32    // next chunk to steal
	wrote  atomic.Int64    // lines written back
}

const (
	// chunkAddrs is the number of tracked addresses a chunk is sized for:
	// at ~0.2 µs of simulated write-back per line, enough work (~0.4 ms) to
	// be worth waking a second flusher for.
	chunkAddrs = 2048
	// chunksPerFlusher over-partitions the heap so that stealing evens out
	// spans of unequal line density.
	chunksPerFlusher = 8
	// scratchKeepAddrs bounds the scratch (line buffer, flusher queues) kept
	// for the next checkpoint. A flush larger than this is a one-off — the
	// first checkpoint after a format flushes every bucket of the store — and
	// keeping its buffers would hold tens of megabytes live for good.
	scratchKeepAddrs = 1 << 18
)

// run writes back every live line of lists and fences; it returns the number
// of lines written. dead must be sorted and disjoint (deadRanges). pend, when
// non-nil, is the drained pending-line bitmap: only lines whose bit this call
// claims are written. At most maxFlushers flushers run, one of them on the
// calling goroutine. The engine is not reentrant: checkpoints hold ckptMu,
// and a drain is joined before the next checkpoint starts.
func (e *flushEngine) run(lists [][]pmem.Addr, dead []deadRange, pend []atomic.Uint64, maxFlushers int) int {
	n := 0
	lo, hi := ^uint64(0), uint64(0)
	for _, list := range lists {
		n += len(list)
		for _, a := range list {
			line := uint64(a) / pmem.LineSize
			lo, hi = min(lo, line), max(hi, line)
		}
	}
	// Chunks are equal power-of-two spans of [lo, hi]: a shift per address
	// instead of a division, at the price of using between half and all of
	// the chunks asked for.
	nChunks := min((n+chunkAddrs-1)/chunkAddrs, maxFlushers*chunksPerFlusher)
	shift := 0
	if nChunks > 0 {
		shift = bits.Len64((hi - lo) / uint64(nChunks))
		nChunks = int((hi-lo)>>shift) + 1
	}
	// Counting sort by chunk: count, turn the counts into start offsets,
	// scatter — which leaves each offset at its chunk's end.
	ends := slices.Grow(e.ends[:0], nChunks)[:nChunks]
	clear(ends)
	for _, list := range lists {
		for _, a := range list {
			ends[(uint64(a)/pmem.LineSize-lo)>>shift]++
		}
	}
	at := 0
	for c, count := range ends {
		ends[c] = at
		at += count
	}
	lines := slices.Grow(e.lines[:0], n)[:n]
	for _, list := range lists {
		for _, a := range list {
			line := uint64(a) / pmem.LineSize
			c := (line - lo) >> shift
			lines[ends[c]] = line
			ends[c]++
		}
	}
	e.ends, e.lines = ends, lines

	nFlushers := max(1, min(maxFlushers, nChunks))
	for len(e.flushers) < nFlushers {
		e.flushers = append(e.flushers, e.heap.NewFlusher())
	}
	e.dead, e.pend = dead, pend
	e.cursor.Store(0)
	e.wrote.Store(0)
	if nFlushers == 1 {
		e.flush(e.flushers[0])
	} else {
		var wg sync.WaitGroup
		for _, f := range e.flushers[1:nFlushers] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.flush(f)
			}()
		}
		e.flush(e.flushers[0])
		wg.Wait()
	}
	e.dead, e.pend = nil, nil
	if n > scratchKeepAddrs {
		e.lines, e.flushers = nil, nil
	}
	return int(e.wrote.Load())
}

// flush is one flusher's share: steal chunks until none are left, then fence
// once. Always fences, even with nothing queued — a checkpoint's flush is a
// persist barrier whether or not it had lines to write.
func (e *flushEngine) flush(f *pmem.Flusher) {
	wrote := 0
	for {
		c := int(e.cursor.Add(1)) - 1
		if c >= len(e.ends) {
			break
		}
		start := 0
		if c > 0 {
			start = e.ends[c-1]
		}
		wrote += e.flushChunk(f, e.lines[start:e.ends[c]])
	}
	f.SFence()
	e.wrote.Add(int64(wrote))
}

// flushChunk queues the live lines of one chunk on f in ascending order and
// returns how many it queued.
func (e *flushEngine) flushChunk(f *pmem.Flusher, lines []uint64) int {
	if len(lines) == 0 {
		return 0
	}
	slices.Sort(lines)
	dead, pend := e.dead, e.pend
	// Skip the dead spans that end before the chunk begins; from here on the
	// walk over dead only moves forward, in step with the lines.
	first := pmem.LineAddr(int(lines[0]))
	di, _ := slices.BinarySearchFunc(dead, first, func(d deadRange, a pmem.Addr) int {
		if d.end <= a {
			return -1
		}
		return 1
	})
	wrote := 0
	for i := 0; i < len(lines); {
		word := lines[i] / 64
		var mask uint64
		for ; i < len(lines) && lines[i]/64 == word; i++ {
			// A line is dead iff it lies inside a span (spans cover whole
			// lines, and block headers — one full line — are outside them).
			a := pmem.LineAddr(int(lines[i]))
			for di < len(dead) && dead[di].end <= a {
				di++
			}
			if di < len(dead) && dead[di].start <= a {
				continue
			}
			mask |= 1 << (lines[i] % 64)
		}
		if pend != nil && mask != 0 {
			// One claim for every surviving line of the word. A bit already
			// cleared by a collision flush does not come back: that worker
			// wrote the line.
			mask = claimBits(&pend[word], mask)
		}
		for ; mask != 0; mask &= mask - 1 {
			f.CLWB(pmem.LineAddr(int(word*64) + bits.TrailingZeros64(mask)))
			wrote++
		}
	}
	return wrote
}

// maxFlushers is the flusher budget of a checkpoint: one under SerialFlush,
// otherwise one per P.
func (rt *Runtime) maxFlushers() int {
	if rt.cfg.SerialFlush {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}
