package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/psan"
	"github.com/respct/respct/internal/telemetry"
)

// MaxThreads is the maximum number of worker threads a Runtime supports.
// The per-thread restart-point table in NVMM is sized for it.
const MaxThreads = 256

// Config parameterises a Runtime.
type Config struct {
	// Threads is the number of worker threads (paper NB_THREADS). Each
	// worker must obtain its handle with Runtime.Thread and all workers
	// must reach restart points for checkpoints to complete.
	Threads int

	// SerialFlush runs the flush engine with a single flusher and a single
	// fence, on the checkpointing goroutine (the configuration the paper
	// identifies as the bottleneck of unmodified PMThreads). Its write-back
	// order is deterministic, which the crash-point explorer relies on.
	SerialFlush bool

	// AsyncFlush pipelines checkpoints: the checkpoint only parks the
	// workers long enough to steal every to-be-flushed list, advance the
	// DRAM epoch cache and arm the collision guard, then releases them; a
	// background drain writes the stolen lines back and only then persists
	// the epoch counter (the durable cut commits late). The worker-visible
	// pause shrinks to the gate + cut, at the price of a staleness bound of
	// two checkpoint intervals — buffered durable linearizability permits
	// it. Ignored when SkipFlush is set (there is nothing to overlap).
	AsyncFlush bool

	// SkipFlush elides flush_modified at checkpoints while keeping the
	// rest of the algorithm (the ResPCT-noFlush configuration of the
	// paper's overhead analysis, Fig. 10). Recovery is unsound with it.
	SkipFlush bool

	// Sanitize attaches the runtime persistency sanitizer (internal/psan):
	// a shadow heap that checks the durability state machine at every
	// store, flush and commit and reports protocol violations at the
	// violating instruction. Diagnostic tool — it serialises every store
	// through one mutex. Ignored under SkipFlush (that configuration elides
	// the flush by design). The RESPCT_SANITIZE environment variable can
	// arm it without the flag; see Runtime.Sanitizer.
	Sanitize bool

	// Metrics, when non-nil, receives the runtime's telemetry: checkpoint
	// pause/gate/flush/epoch-length/lines/drain histograms plus pull-style series
	// over the stat counters the runtime maintains anyway. Nil costs
	// nothing — checkpoint-cadence observations are skipped entirely and no
	// hot path is touched either way.
	Metrics *telemetry.Registry

	// MetricsLabels is attached to every series this runtime registers.
	// Multi-runtime processes (a shard pool) use it to keep per-shard
	// series apart in a shared registry.
	MetricsLabels telemetry.Labels
}

//respct:linefit
type flagSlot struct {
	v atomic.Bool // 4 bytes: atomic.Bool wraps a uint32
	_ [60]byte    // pad to exactly one line; adjacent slots must not share
}

// CheckpointInfo describes one completed checkpoint. Under AsyncFlush,
// Total is the worker-visible pause only (gate + cut): the flush happens in
// the background after the workers resume, so FlushTime and LinesWrote are
// zero here and show up in RuntimeStats once the drain commits.
type CheckpointInfo struct {
	Epoch      uint64        // the epoch this checkpoint closed
	GateWait   time.Duration // time waiting for all threads to reach RPs
	FlushTime  time.Duration // time spent in flush_modified
	Total      time.Duration // end-to-end checkpoint duration
	AddrsSeen  int           // tracked addresses drained (paper's "addresses flushed")
	LinesWrote int           // unique cache lines written back
}

// RuntimeStats aggregates checkpoint activity.
type RuntimeStats struct {
	Checkpoints uint64        // completed checkpoints (epochs ended)
	AddrsSeen   uint64        // tracked addresses drained across all checkpoints
	LinesWrote  uint64        // unique cache lines written back across all checkpoints
	GateWait    time.Duration // total time spent waiting for workers to park
	FlushTime   time.Duration // total time spent in checkpoint flush phases
	TotalPause  time.Duration // total worker-visible checkpoint pause

	// Async-mode counters (zero in synchronous mode).
	Drains           uint64        // background drains committed
	CommitLag        time.Duration // total cut-to-durable-commit lag across drains
	CollisionFlushes uint64        // pending lines flushed by workers (flush-on-collision)
	CollisionsLogged uint64        // InCLL cells undo-logged to the collision log
	CollisionLogPeak uint64        // high-water mark of the collision log occupancy

	// Allocator magazine activity.
	MagazineRecycled uint64 // blocks recycled from per-thread magazines
	MagazineSpilled  uint64 // magazine overflow entries spilled to deferred frees
}

// Runtime is the ResPCT runtime for one persistent heap: the global epoch,
// the checkpoint machinery and the crash-consistent allocator.
type Runtime struct {
	heap *pmem.Heap
	cfg  Config

	// epochCache mirrors the persistent epoch counter (heap word 0) in
	// DRAM; update_InCLL reads it on every store.
	epochCache atomic.Uint64
	timer      atomic.Bool

	flags   []flagSlot
	threads []*Thread
	sys     *Thread // system thread: init, recovery, deferred frees; not gated

	// all caches the workers+sys slice (threads never change after
	// construction), so checkpoints don't allocate it every epoch.
	all []*Thread

	// parked counts threads whose checkpoint flag is set. The gate spins on
	// this single counter instead of rescanning every flag per Gosched.
	parked atomic.Int32

	arena *Arena

	ckptMu     sync.Mutex
	sysFlusher *pmem.Flusher // guarded by ckptMu

	// Checkpoint scratch, reused across epochs so steady-state checkpoints
	// allocate nothing. All guarded by ckptMu (deadScratch and flush are
	// additionally held by an async drain until it completes, and Checkpoint
	// joins any in-flight drain before reusing them).
	deadScratch []deadRange   // deadRanges result buffer
	deadKeys    []uint64      // deadRanges packed sort keys
	flushLists  [][]pmem.Addr // flushModified's gathered lists
	flush       flushEngine   // the write-back path of both checkpoint modes
	spareLists  [][]pmem.Addr // stolen toFlush buffers returned by drains

	// release is what parked threads block on once a checkpoint outlasts
	// their bounded spin: Checkpoint and cutAsync drop timer under relMu and
	// broadcast (see awaitRelease).
	relMu   sync.Mutex
	release sync.Cond // L is &relMu

	// Asynchronous checkpointing state (Config.AsyncFlush; see async.go).
	asyncOn       bool                     // AsyncFlush && !SkipFlush, frozen at construction
	durableEpoch  atomic.Uint64            // epoch counter as persisted in NVMM (≤ epochCache)
	drainLive     atomic.Bool              // a drain is between its cut and its durable commit
	drainEpochN   atomic.Uint64            // the epoch the live drain is persisting
	drain         atomic.Pointer[drainJob] // in-flight drain, nil when none
	pendingBits   [2][]atomic.Uint64       // 1 bit per heap line; double-buffered dirty/pending maps
	activeBits    atomic.Uint32            // index tracking writes mark; 1-activeBits is being drained
	commitFlusher *pmem.Flusher            // drain-side flusher for the epoch commit
	collMu        sync.Mutex               // serialises collision-log appends
	collCount     int                      // volatile mirror of the log count; guarded by collMu
	collFlusher   *pmem.Flusher            // guarded by collMu
	drainHook     func(uint64, bool)       // test hook: (ending, preCommit)

	// quiescedHook, when set, runs while all threads are parked, before
	// flush_modified. Crash tests use it to certify logical snapshots.
	quiescedHook func(endingEpoch uint64)

	// faultCommitFirst, when set, makes synchronous checkpoints persist the
	// epoch counter before draining the flush lists — a deliberate protocol
	// violation installed only by SetCommitBeforeFlushFault for durability-
	// checker tests.
	faultCommitFirst bool

	nCheckpoints   atomic.Uint64
	statAddrs      atomic.Uint64
	statLines      atomic.Uint64
	statGateNs     atomic.Int64
	statFlushNs    atomic.Int64
	statTotalNs    atomic.Int64
	statDrains     atomic.Uint64
	statCommitNs   atomic.Int64
	statCollFlush  atomic.Uint64
	statCollLogged atomic.Uint64
	statCollPeak   atomic.Uint64 // collision-log occupancy high-water mark

	// san is the attached persistency sanitizer, nil unless Config.Sanitize
	// or RESPCT_SANITIZE armed it (see sanitize.go). Written once at
	// construction, before worker goroutines exist.
	san *psan.Sanitizer

	// flight is the persistent event ring carved from the arena metadata;
	// non-nil once NewRuntime/Recover complete. Record calls happen at
	// checkpoint cadence only.
	flight *telemetry.FlightRecorder

	// met holds the optional checkpoint-cadence histograms (Config.Metrics);
	// all fields nil when no registry was supplied.
	met struct {
		pauseNs *telemetry.Histogram // worker-visible checkpoint pause
		gateNs  *telemetry.Histogram // gate wait within the pause
		flushNs *telemetry.Histogram // flush_modified within the pause (sync only)
		epochNs *telemetry.Histogram // epoch length (checkpoint-to-checkpoint)
		lines   *telemetry.Histogram // cache lines written back per flush
		drainNs *telemetry.Histogram // async cut-to-durable-commit lag
	}
	lastCkptEnd time.Time // previous checkpoint's release time; guarded by ckptMu
}

// Thread is a worker's handle on the runtime. Each handle must be used by a
// single goroutine. It owns the thread's to-be-flushed list, deferred-free
// list and persistent restart-point identifier.
type Thread struct {
	rt          *Runtime
	id          int
	toFlush     []pmem.Addr
	pendingFree []pmem.Addr
	rpID        InCLL
	rpCalls     uint64

	// Write-combining line cache (track.go): registrations of a line already
	// seen at the current generation are dropped. The generation bumps
	// whenever toFlush is cleared or stolen (resetTracking).
	trackGen  uint64
	lineCache []lineSlot

	// Cached epoch state (track.go): exact copies of epochCache /
	// durableEpoch / drainLive refreshed at park/unpark boundaries, so the
	// tracked-store fast path does no atomic loads. Owner-goroutine only.
	epochCached   uint64
	durableCached uint64
	drainCached   bool

	// magazines cache freed blocks per size class for lock-free recycling
	// by the owning thread (see Arena.Free). magStart is the pop cursor.
	magazines [numClasses][]magazineEntry
	magStart  [numClasses]int

	// flusher is this thread's cached write-back handle, used by async
	// flush-on-collision — reusing it keeps its pending buffer warm.
	flusher *pmem.Flusher

	// Magazine activity counters. Atomics only because Stats may read them
	// concurrently; each is written by its owning goroutine alone, so the
	// adds never contend.
	magRecycled atomic.Uint64
	magSpilled  atomic.Uint64
}

// magazineEntry records a freed block and the epoch that freed it: the
// block is recyclable once that epoch has been checkpointed.
type magazineEntry struct {
	block pmem.Addr
	epoch uint64
}

// NewRuntime formats a fresh heap for ResPCT and returns its runtime: the
// allocator metadata is laid out and persisted, the global epoch is set to 1
// and every worker thread's persistent restart-point cell is allocated. Use
// Recover instead for a heap that holds a previous execution's state.
func NewRuntime(h *pmem.Heap, cfg Config) (*Runtime, error) {
	if cfg.Threads <= 0 || cfg.Threads > MaxThreads {
		return nil, fmt.Errorf("core: thread count %d out of range [1,%d]", cfg.Threads, MaxThreads)
	}
	rt := &Runtime{heap: h, cfg: cfg}
	rt.sysFlusher = h.NewFlusher()
	rt.sys = newThread(rt, -1)
	rt.epochCache.Store(1)
	rt.durableEpoch.Store(1)
	h.Store64(h.EpochAddr(), 1)

	arena, err := formatArena(rt)
	if err != nil {
		return nil, err
	}
	rt.arena = arena
	// The flight ring is formatted (cursor zeroed and persisted) before the
	// format marker goes down, so a marker in NVMM implies a valid ring.
	rt.flight = telemetry.NewFlightRecorder(h, arena.flightHdrAddr(), flightEntries)

	rt.flags = make([]flagSlot, cfg.Threads)
	rt.threads = make([]*Thread, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		t := newThread(rt, i)
		cell, err := arena.allocRPCell(rt.sys, i)
		if err != nil {
			return nil, err
		}
		t.rpID = cell
		rt.threads[i] = t
	}
	rt.finishInit()

	// Persist the formatted image and close the formatting epoch like a
	// checkpoint would: flush everything formatting touched, then advance
	// to epoch 2 and persist the counter. Ending the epoch here keeps the
	// tracking invariant — a cell whose tag equals the current epoch is
	// always in some to-be-flushed list — which would break if execution
	// continued in the epoch whose list was just drained. The format
	// marker goes last, so a marker in NVMM implies a complete format.
	for _, a := range rt.sys.toFlush {
		rt.sysFlusher.CLWB(a)
	}
	rt.sys.resetTracking()
	rt.sysFlusher.SFence()
	h.Annotate("epoch-commit", 2)
	h.Store64(h.EpochAddr(), 2)
	rt.epochCache.Store(2)
	rt.durableEpoch.Store(2)
	rt.sysFlusher.Persist(h.EpochAddr())
	arena.persistFormatMarker(rt.sysFlusher)
	rt.refreshThreadCaches()
	rt.attachSanitizer(2, false)
	rt.flight.Record(telemetry.FlightFormat, 2, uint64(cfg.Threads), 0)
	return rt, nil
}

// finishInit builds the state both NewRuntime and Recover need once the
// thread handles exist: the cached all-threads slice and, in async mode, the
// pending-line bitmap and the drain-side flushers.
func (rt *Runtime) finishInit() {
	rt.all = make([]*Thread, 0, len(rt.threads)+1)
	rt.all = append(rt.all, rt.threads...)
	rt.all = append(rt.all, rt.sys)
	rt.release.L = &rt.relMu
	rt.flush.heap = rt.heap
	rt.asyncOn = rt.cfg.AsyncFlush && !rt.cfg.SkipFlush
	if rt.asyncOn {
		words := (rt.heap.Lines() + 63) / 64
		rt.pendingBits[0] = make([]atomic.Uint64, words)
		rt.pendingBits[1] = make([]atomic.Uint64, words)
		rt.commitFlusher = rt.heap.NewFlusher()
		rt.collFlusher = rt.heap.NewFlusher()
		// Addresses tracked before this point — recovery's rolled-back and
		// replayed cells in particular — predate the dirty bitmaps. Mark
		// them now, or the first async drain's test-and-clear would skip
		// their lines and commit an epoch that never flushed them
		// (faultSkipReplayMarks re-seeds exactly that bug for the sanitizer
		// regression fixture).
		if !faultSkipReplayMarks {
			for _, t := range rt.all {
				for _, a := range t.toFlush {
					rt.markDirty(a)
				}
			}
		}
	}
	if reg := rt.cfg.Metrics; reg != nil {
		lb := rt.cfg.MetricsLabels
		rt.met.pauseNs = reg.Histogram("respct_checkpoint_pause_ns", "worker-visible checkpoint pause", lb)
		rt.met.gateNs = reg.Histogram("respct_checkpoint_gate_ns", "time waiting for workers to reach restart points", lb)
		rt.met.flushNs = reg.Histogram("respct_checkpoint_flush_ns", "flush_modified inside the pause; an async checkpoint flushes in the drain instead", lb)
		rt.met.epochNs = reg.Histogram("respct_epoch_length_ns", "time between consecutive checkpoints", lb)
		rt.met.lines = reg.Histogram("respct_checkpoint_lines", "cache lines written back per checkpoint flush", lb)
		rt.met.drainNs = reg.Histogram("respct_drain_ns", "async cut-to-durable-commit lag", lb)
		rt.registerFuncs(reg)
	}
}

// registerFuncs exposes counters the runtime maintains anyway as pull-style
// series. Registration is idempotent and rebinding (latest fn wins), so a
// registry outliving a crash-recover cycle ends up scraping the live runtime.
func (rt *Runtime) registerFuncs(reg *telemetry.Registry) {
	lb := rt.cfg.MetricsLabels
	reg.CounterFunc("respct_checkpoints_total", "checkpoints completed", lb, rt.nCheckpoints.Load)
	reg.CounterFunc("respct_flushed_lines_total", "cache lines written back by checkpoint flushes", lb, rt.statLines.Load)
	reg.CounterFunc("respct_tracked_addrs_total", "tracked addresses drained by checkpoints", lb, rt.statAddrs.Load)
	reg.CounterFunc("respct_drains_total", "background drains committed", lb, rt.statDrains.Load)
	reg.CounterFunc("respct_collision_flushes_total", "pending lines flushed by workers on collision", lb, rt.statCollFlush.Load)
	reg.CounterFunc("respct_collisions_logged_total", "InCLL cells saved to the collision log", lb, rt.statCollLogged.Load)
	reg.GaugeFunc("respct_collision_log_peak", "collision-log occupancy high-water mark", lb,
		func() float64 { return float64(rt.statCollPeak.Load()) })
	reg.CounterFunc("respct_magazine_recycled_total", "blocks recycled from per-thread magazines", lb,
		func() uint64 { return rt.Stats().MagazineRecycled })
	reg.CounterFunc("respct_magazine_spilled_total", "magazine entries spilled to deferred frees", lb,
		func() uint64 { return rt.Stats().MagazineSpilled })
	reg.GaugeFunc("respct_epoch", "current epoch", lb,
		func() float64 { return float64(rt.epochCache.Load()) })
	reg.GaugeFunc("respct_durable_epoch", "epoch as persisted in NVMM", lb,
		func() float64 { return float64(rt.durableEpoch.Load()) })
	reg.CounterFunc("respct_arena_allocs_total", "arena allocations", lb,
		func() uint64 { return rt.arena.Stats().Allocs })
	reg.CounterFunc("respct_arena_frees_total", "arena frees", lb,
		func() uint64 { return rt.arena.Stats().Frees })
	reg.CounterFunc("respct_arena_carves_total", "fresh blocks carved off the bump region", lb,
		func() uint64 { return rt.arena.Stats().Carves })
	reg.GaugeFunc("respct_arena_used_bytes", "bytes between arena data base and bump cursor", lb,
		func() float64 { return float64(rt.arena.Stats().Used) })
	reg.CounterFunc("respct_pmem_flushes_total", "cache-line write-backs issued to NVMM", lb,
		func() uint64 { return rt.heap.Stats().Flushes })
	reg.CounterFunc("respct_pmem_fences_total", "persist barriers issued", lb,
		func() uint64 { return rt.heap.Stats().Fences })
	reg.CounterFunc("respct_pmem_evictions_total", "chaos-evictor line write-backs", lb,
		func() uint64 { return rt.heap.Stats().Evictions })
	reg.GaugeFunc("respct_flight_seq", "flight-recorder sequence number", lb,
		func() float64 { return float64(rt.flight.Seq()) })
}

// Flight returns the runtime's persistent flight recorder. It is always
// non-nil after NewRuntime/Recover; events append at checkpoint cadence.
func (rt *Runtime) Flight() *telemetry.FlightRecorder { return rt.flight }

// Heap returns the underlying persistent heap.
func (rt *Runtime) Heap() *pmem.Heap { return rt.heap }

// Arena returns the runtime's crash-consistent allocator.
func (rt *Runtime) Arena() *Arena { return rt.arena }

// Epoch returns the current epoch number.
func (rt *Runtime) Epoch() uint64 { return rt.epochCache.Load() }

// Threads returns the configured worker count.
func (rt *Runtime) Threads() int { return len(rt.threads) }

// Thread returns worker i's handle. The handle must be used by one
// goroutine only.
func (rt *Runtime) Thread(i int) *Thread { return rt.threads[i] }

// Sys returns the system thread handle, for initialisation code that runs
// before workers start (or while they are quiesced). It is not gated by
// checkpoints and must never be used concurrently with them; when a
// checkpointer may be running, use ExclusiveSys instead.
func (rt *Runtime) Sys() *Thread { return rt.sys }

// ExclusiveSys runs f with the system thread while holding the checkpoint
// lock, so f's updates cannot race a concurrent checkpoint's flush of the
// system flush list. Keep f short: checkpoints are blocked for its
// duration.
func (rt *Runtime) ExclusiveSys(f func(sys *Thread)) {
	rt.ckptMu.Lock()
	defer rt.ckptMu.Unlock()
	f(rt.sys)
}

// SetQuiescedHook installs f to run during checkpoints while every worker is
// parked, before modified data is flushed. Pass nil to clear. Not safe to
// call concurrently with checkpoints.
func (rt *Runtime) SetQuiescedHook(f func(endingEpoch uint64)) { rt.quiescedHook = f }

// SetCommitBeforeFlushFault installs (on) or clears a deliberate protocol
// fault for testing the durability checker: while set, a synchronous
// checkpoint persists the incremented epoch counter *before* draining the
// flush lists, so a crash landing between the commit write-back and the
// payload flush recovers to a checkpoint whose data never reached NVMM —
// the commit-before-flush ordering the persistorder analyzer forbids in
// real code. Test hook only; it has no effect on async checkpoints and must
// not be toggled concurrently with a checkpoint.
func (rt *Runtime) SetCommitBeforeFlushFault(on bool) { rt.faultCommitFirst = on }

// RootInCLL returns an InCLL view of named persistent root slot i. Roots
// are always scanned during recovery. Publish into a root with
// Thread.Update, never Thread.Init: roots pre-exist, and only Update's undo
// log lets a crash roll the publication back to the previous root — Init
// would pin the new value while the block it points to is un-carved by the
// allocator rollback.
func (rt *Runtime) RootInCLL(i int) InCLL {
	return InCLLAt(rt.heap.RootAddr(i))
}

// CheckpointIdle runs one checkpoint while no worker goroutines are active:
// it opens an allow window for every worker, checkpoints, and closes the
// windows. Setup code uses it to make freshly created structures durable
// before the workload (and its periodic checkpointer) starts.
func (rt *Runtime) CheckpointIdle() CheckpointInfo {
	for i := range rt.threads {
		rt.threads[i].CheckpointAllow()
	}
	info := rt.Checkpoint()
	for i := range rt.threads {
		rt.threads[i].CheckpointPrevent(nil)
	}
	return info
}

// ID returns the worker index, or -1 for the system thread.
func (t *Thread) ID() int { return t.id }

// Runtime returns the runtime this handle belongs to.
func (t *Thread) Runtime() *Runtime { return t.rt }

// RPID returns the thread's persistent restart-point cell. After recovery
// it holds the identifier of the RP the thread last parked at, which tells
// the application where to resume.
func (t *Thread) RPID() InCLL { return t.rpID }

// Load reads a persistent word.
func (t *Thread) Load(a pmem.Addr) uint64 { return t.rt.heap.Load64(a) }

// RP marks a restart point (paper Fig. 4 lines 40-45). The identifier must
// be unique per RP() call site and stable across runs. If a checkpoint is
// pending the thread parks here until it completes.
func (t *Thread) RP(id uint64) {
	t.Update(t.rpID, id)
	if t.rt.timer.Load() {
		t.waitCheckpoint(nil)
		t.refreshEpochState()
		return
	}
	if t.rt.asyncOn {
		// A drain may have committed since the last boundary; re-reading the
		// flag here (one load per RP, not per store) lets the collision guard
		// go back to its atomics-free no-drain path.
		t.drainCached = t.rt.drainLive.Load()
	}
	// On few-core hosts a tight RP loop can starve the checkpointer (real
	// hardware threads in the paper's setup run truly in parallel); yield
	// occasionally so the timer goroutine gets CPU.
	t.rpCalls++
	if t.rpCalls&0xFF == 0 {
		runtime.Gosched()
	}
}

// CheckpointAllow marks the thread as safe to checkpoint while it is about
// to block (paper Fig. 4 lines 30-31), e.g. on a condition variable or at
// goroutine exit. The thread must not touch persistent state until it calls
// CheckpointPrevent.
func (t *Thread) CheckpointAllow() {
	t.rt.park(t.id)
}

// park sets thread i's checkpoint flag, unpark clears it; both keep the
// parked countdown in sync. They are idempotent — CheckpointAllow may run on
// an already-allowed thread (e.g. a goroutine-exit hook after a CondWait) —
// so the flag's Swap result gates the counter update.
func (rt *Runtime) park(i int) {
	if !rt.flags[i].v.Swap(true) {
		rt.parked.Add(1)
	}
}

func (rt *Runtime) unpark(i int) {
	if rt.flags[i].v.Swap(false) {
		rt.parked.Add(-1)
	}
}

// CheckpointPrevent revokes CheckpointAllow after a wait returns (paper
// Fig. 4 lines 32-39). If a checkpoint is in flight the thread temporarily
// re-allows it, releases mu (the mutex re-acquired by the condition wait) to
// avoid deadlocking threads parked at RPs that need it, waits for the
// checkpoint to finish, and re-acquires mu. mu may be nil for blocking
// calls made outside any critical section.
func (t *Thread) CheckpointPrevent(mu sync.Locker) {
	t.rt.unpark(t.id)
	if t.rt.timer.Load() {
		t.waitCheckpoint(mu)
	}
	// A checkpoint may have run during the allow window; with our flag down
	// again, the epoch state is frozen until the next park, so the refreshed
	// cache is exact.
	t.refreshEpochState()
}

// waitCheckpoint is the slow path of RP and CheckpointPrevent: a checkpoint
// is pending, so park, wait until it releases the workers, and unpark. mu,
// when non-nil, is free for the whole wait. The loop closes the window
// between observing the release and lowering the flag: a checkpoint that
// starts inside it counts this thread as parked, so the thread must not run
// on — it sees the raised timer after unparking and parks again.
func (t *Thread) waitCheckpoint(mu sync.Locker) {
	rt := t.rt
	for {
		rt.park(t.id)
		if mu != nil {
			mu.Unlock()
		}
		rt.awaitRelease()
		if mu != nil {
			mu.Lock()
		}
		rt.unpark(t.id)
		if !rt.timer.Load() {
			return
		}
	}
}

// parkSpins bounds how long a parked thread polls the timer before it
// blocks: a few tens of microseconds of yields, which outlasts an async cut
// or the flush of a few hundred lines, so short checkpoints cost no sleep and
// wake-up, while a long flush gets the parked threads' CPUs for its flushers.
const parkSpins = 128

// awaitRelease returns once no checkpoint holds the workers parked.
func (rt *Runtime) awaitRelease() {
	for i := 0; i < parkSpins; i++ {
		if !rt.timer.Load() {
			return
		}
		runtime.Gosched()
	}
	rt.relMu.Lock()
	for rt.timer.Load() {
		rt.release.Wait()
	}
	rt.relMu.Unlock()
}

// releaseWorkers ends a checkpoint's parked window: it drops the timer and
// wakes every thread blocked in awaitRelease. The store happens under relMu,
// so a waiter that saw the timer raised is already waiting when the
// broadcast goes out. A waiter that wakes late, into the next checkpoint's
// raised timer, simply waits for that checkpoint's release — it has been
// parked throughout.
func (rt *Runtime) releaseWorkers() {
	rt.relMu.Lock()
	rt.timer.Store(false)
	rt.relMu.Unlock()
	rt.release.Broadcast()
}

// CondWait waits on c with the full Fig. 7 protocol: allow checkpoints,
// wait, then prevent them again (releasing c's mutex if a checkpoint is in
// flight). The caller must hold mu, which must be the mutex c was created
// with, and must re-check its predicate after CondWait returns.
func (t *Thread) CondWait(c *sync.Cond, mu sync.Locker) {
	t.CheckpointAllow()
	c.Wait()
	t.CheckpointPrevent(mu)
}

// Checkpoint executes the paper's checkpoint procedure (Fig. 4 lines 46-59):
// raise the timer, wait until every worker is parked at an RP (or inside an
// allow window), flush all tracked modifications, increment and persist the
// global epoch, apply deferred frees in the new epoch, release the workers.
//
// Under AsyncFlush the flush and the durable commit move off the critical
// path: the checkpoint steals every to-be-flushed list at the cut, releases
// the workers, and hands the lists to a background drain (async.go). A new
// checkpoint first joins any in-flight drain — epochs commit in order.
func (rt *Runtime) Checkpoint() CheckpointInfo {
	rt.ckptMu.Lock()
	for {
		d := rt.drain.Load()
		if d == nil {
			break
		}
		rt.ckptMu.Unlock()
		<-d.done
		rt.ckptMu.Lock()
	}
	defer rt.ckptMu.Unlock()

	start := time.Now()
	if rt.met.epochNs != nil && !rt.lastCkptEnd.IsZero() {
		rt.met.epochNs.ObserveDuration(0, start.Sub(rt.lastCkptEnd))
	}
	rt.timer.Store(true)
	want := int32(len(rt.threads))
	for rt.parked.Load() < want {
		runtime.Gosched()
	}
	gateDone := time.Now()

	ending := rt.epochCache.Load()
	if rt.quiescedHook != nil {
		rt.quiescedHook(ending)
	}

	if rt.asyncOn {
		return rt.cutAsync(ending, start, gateDone)
	}

	newEpoch := ending + 1
	if rt.faultCommitFirst {
		// FAULT INJECTION (SetCommitBeforeFlushFault): publish the epoch
		// counter while the payload it claims durable is still volatile —
		// the exact ordering bug persistorder exists to prevent. A crash
		// between this commit and the flush below recovers to a state that
		// was never certified; the crashexplore durability checker must
		// catch it — and the sanitizer's commit gate must flag it with no
		// crash at all.
		rt.sanBeforeCommit(ending, rt.deadRanges())
		rt.heap.Annotate("epoch-commit", newEpoch)
		//respct:allow persistorder — deliberate commit-before-flush fault injection for durability-checker tests
		rt.heap.Store64(rt.heap.EpochAddr(), newEpoch)
		rt.sysFlusher.Persist(rt.heap.EpochAddr())
	}

	var addrs, lines int
	if !rt.cfg.SkipFlush {
		addrs, lines = rt.flushModified()
	} else {
		for _, t := range rt.allThreads() {
			addrs += len(t.toFlush)
			t.resetTracking()
		}
	}
	flushDone := time.Now()

	if !rt.faultCommitFirst {
		// The durable cut: everything the ending epoch modified is in NVMM
		// (flushModified just fenced), so the epoch counter may now
		// advance and persist. This store-then-persist pair is the commit
		// point the whole recovery contract hangs off — nothing of epoch
		// `ending` may be claimed durable before it. The sanitizer audits
		// exactly that claim first.
		rt.sanBeforeCommit(ending, rt.deadScratch)
		rt.heap.Annotate("epoch-commit", newEpoch)
		rt.heap.Store64(rt.heap.EpochAddr(), newEpoch)
		rt.sysFlusher.Persist(rt.heap.EpochAddr())
	}
	rt.epochCache.Store(newEpoch)
	rt.durableEpoch.Store(newEpoch)
	if rt.san != nil {
		// Stores from here on — the deferred frees below included — belong
		// to the new epoch.
		rt.san.AdvanceEpoch(newEpoch)
	}

	// Deferred frees become visible in the new epoch, so a crash rolls
	// them back and a block can never be recycled in the epoch it was
	// freed (which would clobber data the undo log still depends on).
	rt.arena.applyDeferredFrees(rt.sys, rt.threads)

	rt.releaseWorkers()
	end := time.Now()

	info := CheckpointInfo{
		Epoch:      ending,
		GateWait:   gateDone.Sub(start),
		FlushTime:  flushDone.Sub(gateDone),
		Total:      end.Sub(start),
		AddrsSeen:  addrs,
		LinesWrote: lines,
	}
	rt.nCheckpoints.Add(1)
	rt.statAddrs.Add(uint64(addrs))
	rt.statLines.Add(uint64(lines))
	rt.statGateNs.Add(int64(info.GateWait))
	rt.statFlushNs.Add(int64(info.FlushTime))
	rt.statTotalNs.Add(int64(info.Total))
	rt.lastCkptEnd = end
	if rt.met.pauseNs != nil {
		rt.met.pauseNs.ObserveDuration(0, info.Total)
		rt.met.gateNs.ObserveDuration(0, info.GateWait)
		rt.met.flushNs.ObserveDuration(0, info.FlushTime)
		rt.met.lines.Observe(0, uint64(lines))
	}
	if rt.flight != nil {
		rt.flight.Record(telemetry.FlightCheckpoint, ending, uint64(info.Total), uint64(lines))
	}
	return info
}

func (rt *Runtime) allThreads() []*Thread { return rt.all }

// deadRange is the payload span of a block freed during the ending epoch.
type deadRange struct{ start, end pmem.Addr }

// deadLenBits is the width of the length-in-lines field of a packed dead-range
// sort key; 21 bits cover the largest size class (64 MiB).
const deadLenBits = 21

// deadRanges collects the payload spans of every block freed during the
// epoch this checkpoint is closing. Such a block is unreachable at the
// checkpoint's cut (Free defers recycling to the next epoch), so payload
// writes it received this epoch need not be written back: recovery never
// follows a pointer into it, and its header — which the recovery scan does
// read — is excluded from the span. Under an update-heavy skewed workload
// most records allocated this epoch die this epoch, so the elision removes
// the bulk of the flush. Runs with all workers parked; magazines are stamped
// in free order, so the entries of the ending epoch form each magazine's
// tail.
func (rt *Runtime) deadRanges() []deadRange {
	ending := rt.epochCache.Load()
	// Spans are packed into single uint64 sort keys — start line in the high
	// bits, length in lines in the low deadLenBits — so the sort runs on the
	// specialised uint64 path instead of a comparator over two-word structs.
	// Both fields fit by construction: blocks are line-aligned, the largest
	// class is 64 MiB (2^20 lines), and heaps are far below 2^43 lines.
	keys := rt.deadKeys[:0]
	for _, t := range rt.allThreads() {
		for c := range t.magazines {
			mag := t.magazines[c]
			lenLines := uint64(classSize(c)-headerSize) / pmem.LineSize
			for i := len(mag) - 1; i >= t.magStart[c]; i-- {
				if mag[i].epoch != ending {
					break
				}
				start := uint64(mag[i].block + headerSize)
				keys = append(keys, (start/pmem.LineSize)<<deadLenBits|lenLines)
			}
		}
	}
	slices.Sort(keys)
	rt.deadKeys = keys
	rs := rt.deadScratch[:0]
	for _, k := range keys {
		start := pmem.Addr((k >> deadLenBits) * pmem.LineSize)
		rs = append(rs, deadRange{start, start + pmem.Addr(k&(1<<deadLenBits-1))*pmem.LineSize})
	}
	rt.deadScratch = rs
	return rs
}

// flushModified drains every thread's to-be-flushed list, writing the
// corresponding cache lines back to NVMM — except lines that live wholly
// inside blocks freed during the ending epoch (see deadRanges) — through the
// flush engine (paper: "a pool of flusher threads flushes data to NVMM in
// parallel during checkpoints").
func (rt *Runtime) flushModified() (addrs, lines int) {
	dead := rt.deadRanges()
	lists := rt.flushLists[:0]
	for _, t := range rt.allThreads() {
		addrs += len(t.toFlush)
		lists = append(lists, t.toFlush)
	}
	rt.flushLists = lists
	lines = rt.flush.run(lists, dead, nil, rt.maxFlushers())
	for _, t := range rt.allThreads() {
		t.resetTracking()
	}
	return addrs, lines
}

// Stats returns cumulative checkpoint statistics.
func (rt *Runtime) Stats() RuntimeStats {
	return RuntimeStats{
		Checkpoints: rt.nCheckpoints.Load(),
		AddrsSeen:   rt.statAddrs.Load(),
		LinesWrote:  rt.statLines.Load(),
		GateWait:    time.Duration(rt.statGateNs.Load()),
		FlushTime:   time.Duration(rt.statFlushNs.Load()),
		TotalPause:  time.Duration(rt.statTotalNs.Load()),

		Drains:           rt.statDrains.Load(),
		CommitLag:        time.Duration(rt.statCommitNs.Load()),
		CollisionFlushes: rt.statCollFlush.Load(),
		CollisionsLogged: rt.statCollLogged.Load(),
		CollisionLogPeak: rt.statCollPeak.Load(),

		MagazineRecycled: rt.magCount(func(t *Thread) uint64 { return t.magRecycled.Load() }),
		MagazineSpilled:  rt.magCount(func(t *Thread) uint64 { return t.magSpilled.Load() }),
	}
}

func (rt *Runtime) magCount(f func(*Thread) uint64) uint64 {
	var total uint64
	for _, t := range rt.all {
		total += f(t)
	}
	return total
}
