package core

import (
	"math/bits"
	"sync/atomic"
	"time"

	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/telemetry"
)

// Asynchronous checkpointing (Config.AsyncFlush).
//
// A synchronous checkpoint keeps every worker parked for the whole
// flush_modified drain. In async mode the checkpoint instead performs only a
// *cut* under the parked world — steal each thread's to-be-flushed list,
// record the dead ranges, swap in the pending-line bitmap, arm the collision
// log, advance the DRAM epoch cache — and releases the workers; a background
// drain then writes the stolen lines back and only afterwards persists the
// epoch counter to NVMM and applies the deferred frees. The durable cut
// commits late: until the drain commits, the last *durable* checkpoint is
// still the previous one, so the recovery staleness bound grows from one to
// two checkpoint intervals (buffered durable linearizability allows this —
// completed-but-unfenced epochs may be lost wholesale, never torn).
//
// Running epoch N+1 concurrently with the drain of epoch N is safe because
// of three guards:
//
//  1. Pending-line bitmap + flush-on-collision. Every line the drain owes to
//     NVMM has a bit set. The bitmap is double-buffered and maintained at
//     tracking time (AddModified marks the active buffer), so the cut just
//     swaps buffers; the drain zeroes its buffer before completing, and the
//     next checkpoint joins the drain before gating, so the buffer swapped
//     in is always clean. Before a worker overwrites a word of a pending
//     line (first InCLL update of the epoch, or any StoreTracked), it
//     atomically claims the bit and flushes the line itself, so the cut-N
//     image of the line reaches NVMM before epoch-N+1 bytes can replace it.
//     Drain and workers arbitrate through the atomic test-and-clear: exactly
//     one of them writes each line back.
//
//  2. The collision log. An InCLL cell modified in both N and N+1 holds, at
//     the moment of its N+1 first-update, backup = value@cut(N-1) and
//     tag = N. The first-update overwrites that backup with the cut-N value
//     — correct for recovering to C_N, but a crash *during* the drain must
//     recover to C_{N-1}, whose value just left the cell. So before the
//     overwrite the worker appends (cell, value@cut(N-1)) to a small
//     persistent log, fenced entry-then-count, and recovery applies the log
//     when the persistent image shows a drain was interrupted (the log
//     header's guard epoch equals the failed epoch). If the log fills, the
//     writer simply waits for the drain to commit — after that the backup is
//     dead weight and no entry is needed.
//
//  3. The durable recycle rule. Arena.Alloc recycles a magazine block only
//     once its freeing epoch is older than the *durable* epoch (not the DRAM
//     epoch cache). Blocks freed in epoch N — whose payload the cut elided
//     from the drain precisely because they died — therefore cannot be
//     reallocated and overwritten until C_N is durable, keeping their NVMM
//     payload intact for a mid-drain recovery to C_{N-1}.
//
// Exact line-granularity atomicity of concurrent write-backs (a worker's
// stores racing the drain's capture of the same line) is the PCSO property
// the chaos heap's striped line locks provide; crash soaks therefore run in
// chaos mode, like every other crash test in this repo.

// collision log geometry — see arena.go for the metadata lines backing it.
const collLogEntries = 512

// drainJob is one background drain: the stolen flush lists of a cut, which
// the flush engine writes back, and the epoch commit that follows.
type drainJob struct {
	rt     *Runtime
	ending uint64        // the epoch this drain makes durable
	lists  [][]pmem.Addr // stolen to-be-flushed lists
	frees  []pmem.Addr   // stolen deferred frees, applied after the commit
	dead   []deadRange   // payload spans elided from the flush
	addrs  int           // total stolen addresses (stat)
	cut    time.Time     // when the workers were released

	committed chan struct{} // closed once the epoch counter is durable
	done      chan struct{} // closed once the deferred frees are applied too
}

// cutAsync is the parked-world half of an async checkpoint. Caller holds
// ckptMu, every worker is parked, and no drain is in flight.
func (rt *Runtime) cutAsync(ending uint64, start, gateDone time.Time) CheckpointInfo {
	job := &drainJob{
		rt:        rt,
		ending:    ending,
		dead:      rt.deadRanges(),
		committed: make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, t := range rt.all {
		if len(t.toFlush) > 0 {
			job.addrs += len(t.toFlush)
			job.lists = append(job.lists, t.toFlush)
			// Hand the thread a recycled buffer (returned by a completed
			// drain) so steady-state tracking never re-grows from nil.
			t.toFlush = rt.takeSpareList()
		}
		// Invalidate every write-combining cache: epoch N+1 must re-register
		// (and re-mark) even lines the stolen lists already cover.
		t.trackGen++
		if len(t.pendingFree) > 0 {
			job.frees = append(job.frees, t.pendingFree...)
			t.pendingFree = t.pendingFree[:0]
		}
	}
	// The pending-line bitmap was built incrementally at tracking time (see
	// AddModified): every stolen address already has its line's bit set in
	// the active map. Swapping the double buffer publishes it as the drain's
	// pending map and hands the workers a zeroed map for epoch N+1 — the
	// previous drain cleared it before completing, and Checkpoint joined
	// that drain before gating. Bits of lines that later died stay set; the
	// drain skips them without claiming and the wholesale zeroing sweeps
	// them away.
	rt.activeBits.Store(1 - rt.activeBits.Load())

	// Arm the collision log for this drain window: guard epoch = ending,
	// count = 0, durable before any worker can run in N+1 and append to it.
	h := rt.heap
	h.Annotate("collision-arm", ending)
	hdr := rt.arena.collHdrAddr()
	h.Store64(hdr, ending)
	h.Store64(hdr+8, 0)
	rt.sysFlusher.Persist(hdr)
	rt.collCount = 0

	rt.drainEpochN.Store(ending)
	rt.epochCache.Store(ending + 1)
	if rt.san != nil {
		// Under the parked world, before the release: every store the
		// workers issue after the cut belongs to the new epoch, and the
		// drain's commit gate must not mistake it for an obligation of the
		// epoch being drained.
		rt.san.AdvanceEpoch(ending + 1)
	}
	rt.drain.Store(job)
	rt.drainLive.Store(true)
	rt.releaseWorkers()
	job.cut = time.Now()
	go job.run()

	info := CheckpointInfo{
		Epoch:     ending,
		GateWait:  gateDone.Sub(start),
		Total:     job.cut.Sub(start),
		AddrsSeen: job.addrs,
	}
	rt.nCheckpoints.Add(1)
	rt.statAddrs.Add(uint64(job.addrs))
	rt.statGateNs.Add(int64(info.GateWait))
	rt.statTotalNs.Add(int64(info.Total))
	rt.lastCkptEnd = job.cut
	if rt.met.pauseNs != nil {
		rt.met.pauseNs.ObserveDuration(0, info.Total)
		rt.met.gateNs.ObserveDuration(0, info.GateWait)
	}
	if rt.flight != nil {
		rt.flight.Record(telemetry.FlightCut, ending, uint64(info.Total), uint64(job.addrs))
	}
	return info
}

// run executes the background half of an async checkpoint: drain the stolen
// lists, persist the epoch counter, then apply the deferred frees.
func (j *drainJob) run() {
	rt := j.rt
	if rt.drainHook != nil {
		rt.drainHook(j.ending, false)
	}

	// The drained (inactive) bitmap cannot swap back until this drain is
	// joined, so one load pins it for the whole flush.
	pend := rt.pendingBits[1-rt.activeBits.Load()]
	lines := rt.flush.run(j.lists, j.dead, pend, rt.maxFlushers())

	if rt.drainHook != nil {
		rt.drainHook(j.ending, true)
	}

	// Commit: every cut-N line is in NVMM (drained, collision-flushed, or
	// dead), so the durable cut may advance. The sanitizer audits the claim
	// first: any cut-N line still dirty here is a flush the drain lost.
	rt.sanBeforeCommit(j.ending, j.dead)
	h := rt.heap
	newEpoch := j.ending + 1
	h.Annotate("epoch-commit", newEpoch)
	h.Store64(h.EpochAddr(), newEpoch)
	rt.commitFlusher.Persist(h.EpochAddr())
	rt.durableEpoch.Store(newEpoch)
	rt.drainLive.Store(false)
	lag := time.Since(j.cut)
	rt.statLines.Add(uint64(lines))
	rt.statFlushNs.Add(int64(lag))
	rt.statCommitNs.Add(int64(lag))
	rt.statDrains.Add(1)
	if rt.met.drainNs != nil {
		rt.met.drainNs.ObserveDuration(0, lag)
		rt.met.lines.Observe(0, uint64(lines))
	}
	if rt.flight != nil {
		rt.flight.Record(telemetry.FlightDrainCommit, j.ending, uint64(lag), uint64(lines))
	}
	close(j.committed)

	// Zero the drained bitmap so the next cut can swap it back in clean
	// (Checkpoint joins this drain before gating, so the sweep is always
	// finished before the swap). Leftover bits — dead lines the flush
	// skipped, claims lost to collision flushes — die here.
	bits := rt.pendingBits[1-rt.activeBits.Load()]
	for i := range bits {
		bits[i].Store(0)
	}

	// Deferred frees last, under the checkpoint lock: the pushes are InCLL
	// updates by sys and must not race an ExclusiveSys caller or the next
	// cut stealing sys's flush list. Taking ckptMu here cannot deadlock
	// with a collision-log writer waiting for the drain (even one inside
	// ExclusiveSys): such writers wait on committed, which is already
	// closed.
	rt.ckptMu.Lock()
	rt.arena.pushBlocks(rt.sys, j.frees)
	for _, l := range j.lists {
		rt.spareLists = append(rt.spareLists, l[:0])
	}
	rt.drain.Store(nil)
	rt.ckptMu.Unlock()
	close(j.done)
}

// takeSpareList pops a recycled stolen-list buffer, or nil when none is
// banked (the next append allocates one that will itself be recycled).
// Caller holds ckptMu.
func (rt *Runtime) takeSpareList() []pmem.Addr {
	n := len(rt.spareLists)
	if n == 0 {
		return nil
	}
	l := rt.spareLists[n-1]
	rt.spareLists = rt.spareLists[:n-1]
	return l
}

// markDirty records, in the active bitmap, that a's line will be owed to
// NVMM by the checkpoint that ends the current epoch. Called from the
// tracking paths so the cut itself never walks the tracked addresses.
func (rt *Runtime) markDirty(a pmem.Addr) {
	line := uint64(a) / pmem.LineSize
	w := &rt.pendingBits[rt.activeBits.Load()][line/64]
	mask := uint64(1) << (line % 64)
	// Hot lines are re-marked constantly under skewed workloads; a loaded
	// already-set bit saves the RMW. The bitmap only ever gains bits between
	// cuts, so the test cannot race a concurrent clear of this buffer.
	if w.Load()&mask == 0 {
		w.Or(mask)
	}
}

// claimBits atomically clears the bits of mask that are set in *w and
// returns them — the bits this caller claimed and must now write back.
// Deliberately a Load-then-CAS loop rather than Uint64.And: the Load-first
// test makes the common already-claimed case (collision-flushed lines) a
// single read with no bus-locked RMW, and the And intrinsic's old-value
// result miscompiles under go1.24.0/amd64 in the flush engine's merge loop
// (a live register is clobbered, wedging the walk).
func claimBits(w *atomic.Uint64, mask uint64) uint64 {
	for {
		old := w.Load()
		if old&mask == 0 {
			return 0
		}
		if w.CompareAndSwap(old, old&^mask) {
			return old & mask
		}
	}
}

// clearPending atomically claims a's bit in the drained bitmap (the inactive
// buffer), reporting whether this caller won the line (and therefore must
// write it back).
func (rt *Runtime) clearPending(a pmem.Addr) bool {
	line := uint64(a) / pmem.LineSize
	mask := uint64(1) << (line % 64)
	return claimBits(&rt.pendingBits[1-rt.activeBits.Load()][line/64], mask) != 0
}

// DirtyLineBits exports the union of the double-buffered pending-line
// bitmaps as a per-line bitmap (line i at word i/64, bit i%64): every heap
// line that was modified in the current epoch or is still owed to NVMM by an
// in-flight drain. Incremental snapshot engines union it into a delta of a
// *live* async pool — such lines may reach the persistent image after the
// heap-level churn window was harvested but before the image was read, and
// the union keeps the delta a conservative superset either way. Returns nil
// for synchronous runtimes, which maintain no bitmaps (their flush lists are
// drained under the parked world, so the heap churn window alone is exact at
// any quiesced point).
func (rt *Runtime) DirtyLineBits() []uint64 {
	if !rt.asyncOn {
		return nil
	}
	out := make([]uint64, len(rt.pendingBits[0]))
	for i := range out {
		out[i] = rt.pendingBits[0][i].Load() | rt.pendingBits[1][i].Load()
	}
	return out
}

// DirtyLineCount returns the number of lines currently set in the union of
// the pending bitmaps — the churn the next checkpoint will owe to NVMM.
// Zero for synchronous runtimes. Telemetry and the figframes bench use it to
// report live churn without walking flush lists.
func (rt *Runtime) DirtyLineCount() int {
	if !rt.asyncOn {
		return 0
	}
	n := 0
	for i := range rt.pendingBits[0] {
		n += bits.OnesCount64(rt.pendingBits[0][i].Load() | rt.pendingBits[1][i].Load())
	}
	return n
}

// guardLine is the flush-on-collision rule for plain tracked data: if an
// in-flight drain still owes a's line to NVMM, flush it now, before the
// caller's overwrite can destroy the cut image. The check reads the thread's
// cached drain flag (track.go): a drain can only start while the thread is
// parked, and unparking refreshes the cache, so the flag cannot be stale-
// false; stale-true just falls through to a pending-bit claim that fails.
func (t *Thread) guardLine(a pmem.Addr) {
	if !t.drainPossible() {
		return
	}
	t.flushCollision(a)
}

// collideCell guards the first update of an epoch to an InCLL cell while a
// drain is in flight. tag is the cell's pre-update epoch tag. Two hazards:
// the cell's line may still be pending (flush it before the overwrite), and
// if the cell was modified in the epoch being drained (tag == drain epoch)
// its backup — the only copy of the value at the previous durable cut — is
// about to be overwritten, so it is saved to the persistent collision log
// first.
func (t *Thread) collideCell(a pmem.Addr, tag uint64) {
	rt := t.rt
	if !t.drainPossible() {
		return
	}
	if tag == rt.drainEpochN.Load() {
		rt.logCollision(a, rt.heap.Load64(a+cellBackupOff))
	}
	t.flushCollision(a)
}

// flushCollision claims a's pending bit and, on success, writes the line
// back on the thread's own flusher. In async mode the thread flusher is
// otherwise idle (the sync flushModified never runs), so reusing it keeps
// its buffer warm without racing the drain pool.
func (t *Thread) flushCollision(a pmem.Addr) {
	rt := t.rt
	if !rt.clearPending(a) {
		return
	}
	if t.flusher == nil {
		t.flusher = rt.heap.NewFlusher()
	}
	t.flusher.Persist(a)
	rt.statCollFlush.Add(1)
}

// logCollision durably appends (cell, val) to the collision log. The entry
// line is fenced before the count: write-backs within one fence persist in
// address order, and the count's line precedes the entry lines, so a single
// fence could persist count=n+1 while entry n is still volatile. If the log
// is full the writer waits for the drain to commit instead — the entry
// becomes unnecessary the moment C_N is durable.
func (rt *Runtime) logCollision(a pmem.Addr, val uint64) {
	for {
		rt.collMu.Lock()
		if !rt.drainLive.Load() {
			rt.collMu.Unlock()
			return
		}
		if rt.collCount < collLogEntries {
			h := rt.heap
			h.Annotate("collision-append", uint64(a))
			ent := rt.arena.collEntryAddr(rt.collCount)
			h.Store64(ent, uint64(a))
			h.Store64(ent+8, val)
			rt.collFlusher.Persist(ent)
			hdr := rt.arena.collHdrAddr()
			h.Store64(hdr+8, uint64(rt.collCount+1))
			rt.collFlusher.Persist(hdr)
			rt.collCount++
			if c := uint64(rt.collCount); c > rt.statCollPeak.Load() {
				// Plain store is enough: collMu serialises all writers.
				rt.statCollPeak.Store(c)
			}
			rt.collMu.Unlock()
			rt.statCollLogged.Add(1)
			return
		}
		rt.collMu.Unlock()
		rt.waitCommitted()
	}
}

// waitCommitted blocks until any in-flight drain has durably committed its
// epoch. Unlike WaitDrain it does not wait for the deferred frees and is
// safe to call while holding ckptMu (via ExclusiveSys): the commit phase
// takes no locks.
func (rt *Runtime) waitCommitted() {
	if d := rt.drain.Load(); d != nil {
		<-d.committed
	}
}

// WaitDrain blocks until any in-flight background drain has fully completed
// (epoch durable, deferred frees applied). Callers that read the persistent
// image — snapshots, stats at shutdown — use it to reach a quiescent durable
// state. Must not be called from inside ExclusiveSys.
func (rt *Runtime) WaitDrain() {
	if d := rt.drain.Load(); d != nil {
		<-d.done
	}
}

// DurableEpoch returns the epoch counter as currently persisted in NVMM. In
// sync mode it tracks Epoch; in async mode it trails it by one while a drain
// is in flight.
func (rt *Runtime) DurableEpoch() uint64 { return rt.durableEpoch.Load() }

// SetDrainHook installs f to run inside the background drain, before the
// flush (preCommit=false) and after the flush but before the epoch counter
// persists (preCommit=true). Crash tests use it to kill the heap inside the
// drain window. Not safe to call concurrently with checkpoints.
func (rt *Runtime) SetDrainHook(f func(ending uint64, preCommit bool)) { rt.drainHook = f }
