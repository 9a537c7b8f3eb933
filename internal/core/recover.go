package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/telemetry"
)

// RecoveryReport describes what a recovery pass did.
type RecoveryReport struct {
	FailedEpoch     uint64        // epoch the crash interrupted, read from the persistent counter
	BlocksScanned   int           // allocated blocks visited by the cell scan
	CellsScanned    int           // InCLL cells examined
	CellsRolledBack int           // cells whose tag matched the failed epoch and were rolled back
	Duration        time.Duration // wall time of the recovery pass

	// DrainInterrupted reports that the crash hit inside an async drain
	// window (the collision-log guard epoch equals the failed epoch):
	// recovery also rolled back cells tagged failedEpoch+1 and applied
	// CollisionsApplied entries from the collision log.
	DrainInterrupted  bool
	CollisionsApplied int // collision-log entries re-applied after the rollback scan

	// FlightEvents is the tail of the persistent flight recorder as it
	// survived the crash, oldest first — the runtime's final checkpoints,
	// cuts and drain commits, for post-mortems.
	FlightEvents []telemetry.FlightEvent
}

// Recover reconstructs a consistent runtime from a crashed heap (paper
// Fig. 5). It reboots the heap if needed, plans the recovery of the rebooted
// image (planRecovery) and applies the plan: every InCLL cell in NVMM — the
// arena's metadata cells, the 64 root cells, and every cell of every carved
// block — whose epoch tag says so is rolled back to its logged value. The
// rolled-back lines are flushed immediately, so the persistent image itself
// becomes the state of the last completed checkpoint and recovery is
// idempotent across repeated crashes.
//
// parallelism is the number of goroutines used for the block scan (the
// paper parallelises recovery with 32 threads); values < 2 scan serially.
//
// Execution resumes in the failed epoch, exactly as in the paper (Fig. 5
// line 65): cells already tagged with it keep their backup — which recovery
// just made the current value — so a second crash rolls back to the same
// checkpoint.
func Recover(h *pmem.Heap, cfg Config, parallelism int) (*Runtime, *RecoveryReport, error) {
	start := time.Now()
	if cfg.Threads <= 0 || cfg.Threads > MaxThreads {
		return nil, nil, fmt.Errorf("core: thread count %d out of range [1,%d]", cfg.Threads, MaxThreads)
	}
	if h.Crashed() {
		h.Reopen()
	}
	p, err := planRecovery(h, h.Load64)
	if err != nil {
		return nil, nil, err
	}
	arena := p.arena
	rt := &Runtime{heap: h, cfg: cfg, arena: arena}
	rt.sysFlusher = h.NewFlusher()
	rt.sys = newThread(rt, -1)
	rt.epochCache.Store(p.epoch)
	rt.durableEpoch.Store(p.epoch)

	rep := &RecoveryReport{FailedEpoch: p.epoch, DrainInterrupted: p.drained}
	rt.flight, rep.FlightEvents = telemetry.OpenFlightRecorder(h, arena.flightHdrAddr(), flightEntries)
	p.apply(rt, rep, parallelism)

	// Rebuild worker handles; restart-point cells registered by a previous
	// run are recovered, missing ones (never checkpointed) are fresh.
	rt.flags = make([]flagSlot, cfg.Threads)
	rt.threads = make([]*Thread, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		t := newThread(rt, i)
		if addr := h.Load64(arena.rpSlot(i)); addr != 0 {
			t.rpID = InCLLAt(pmem.Addr(addr))
		} else {
			cell, err := arena.allocRPCell(rt.sys, i)
			if err != nil {
				return nil, nil, err
			}
			t.rpID = cell
		}
		rt.threads[i] = t
	}
	rt.finishInit()
	// Fresh thread handles start with zeroed epoch caches; seed them before
	// the handles are handed out (execution resumes in the failed epoch, so
	// nothing changes the shared counters between here and the first store).
	rt.refreshThreadCaches()
	// Attach the sanitizer last, replaying
	// the tracked state of every rolled-back cell: the resumed epoch owes
	// them a flush, and rule R1 holds it to that.
	rt.attachSanitizer(p.epoch, true)

	rep.Duration = time.Since(start)
	var drainedAux uint64
	if p.drained {
		drainedAux = 1
	}
	rt.flight.Record(telemetry.FlightRecovery, p.epoch, uint64(rep.CellsRolledBack), drainedAux)
	return rt, rep, nil
}

// ErrNotFormatted reports a heap whose persistent image carries no ResPCT
// format marker: nothing on it can be recovered, and it has no live view
// (snapshot its full image).
var ErrNotFormatted = errors.New("core: heap is not ResPCT-formatted")

// recoveryPlan is the recovery of one persistent image.
type recoveryPlan struct {
	arena *Arena
	load  func(pmem.Addr) uint64 // reads the planned image
	epoch uint64                 // the failed epoch: the image's epoch word
	// drained reports a crash inside an async drain window: the
	// collision-log guard epoch equals the failed epoch (see rollsBack).
	drained  bool
	log      []collEntry          // the collision log, in order; empty unless drained
	replayed map[pmem.Addr]uint64 // each logged cell's value once the log is replayed
	blocks   []carvedBlock        // every carved block below the recovered bump, in address order
}

// collEntry is one collision-log entry: an InCLL cell and its value at the
// last durable cut.
type collEntry struct {
	cell pmem.Addr
	val  uint64
}

// carvedBlock is one carved block as recovery sees it.
type carvedBlock struct {
	start     pmem.Addr
	cells     int32 // InCLL cells the recovered layout declares
	class     int8
	newLayout bool // apply rewrites the layout cell
	free      bool // on a committed free list; only the live view sets it
}

func (b carvedBlock) end() pmem.Addr { return b.start + pmem.Addr(classSize(int(b.class))) }

// planRecovery reads the image of h that load returns — the rebooted image
// for Recover, the persistent one for the live view (live.go), which is the
// plan without apply — and decides everything the recovery rule does,
// writing nothing. It refuses an image recovery could not trust: no format
// marker (ErrNotFormatted), another format, an epoch word of 0 (a torn
// format), a collision log that does not fit, a bump cursor outside the data
// region, or a carved block whose magic or layout does not fit its place.
func planRecovery(h *pmem.Heap, load func(pmem.Addr) uint64) (*recoveryPlan, error) {
	a := newArenaView(h)
	mb := a.markerAddr()
	if a.dataBase >= a.dataEnd || load(mb) != formatMagic {
		return nil, ErrNotFormatted
	}
	if v, c, n := load(mb+8), load(mb+16), load(mb+24); v != formatVer || c != numClasses || n != MaxThreads {
		return nil, fmt.Errorf("core: format version %d, %d size classes, MaxThreads %d; this binary has %d, %d, %d",
			v, c, n, formatVer, numClasses, MaxThreads)
	}
	p := &recoveryPlan{arena: a, load: load, epoch: load(h.EpochAddr())}
	if p.epoch == 0 {
		return nil, errors.New("core: formatted heap with epoch 0 — torn format")
	}

	// If the collision-log guard epoch equals the failed epoch, the crash
	// hit between an async cut of the failed epoch and its durable commit.
	// The epoch counter is monotonic, so a guard from any *committed* drain
	// can never equal a failed epoch.
	p.drained = load(a.collHdrAddr()) == p.epoch
	if p.drained {
		cnt := load(a.collHdrAddr() + 8)
		if cnt > collLogEntries {
			return nil, fmt.Errorf("core: corrupt collision log (count %d)", cnt)
		}
		p.replayed = make(map[pmem.Addr]uint64, cnt)
		for i := 0; i < int(cnt); i++ {
			ent := a.collEntryAddr(i)
			c, val := pmem.Addr(load(ent)), load(ent+8)
			if c%pmem.WordSize != 0 || int64(c) <= 0 || int64(c)+3*pmem.WordSize > h.Size() ||
				uint64(c)%pmem.LineSize > pmem.LineSize-3*pmem.WordSize {
				return nil, fmt.Errorf("core: corrupt collision log entry %d (addr %#x)", i, uint64(c))
			}
			p.log = append(p.log, collEntry{c, val})
			p.replayed[c] = val
		}
	}

	// The carved region, bounded by the bump cursor as the log leaves it:
	// the bump itself can be logged (carves in both epochs of a drain
	// window), and its not-yet-durable value would extend the walk into
	// blocks whose headers never reached NVMM (faultWalkBeforeReplay
	// re-seeds that bug). Headers of every reachable block were flushed by
	// the checkpoint that made them reachable, so magic and layout are
	// trustworthy once the layout cell is recovered; blocks tile the region.
	bump, _ := p.recovered(a.bump.Addr())
	if faultWalkBeforeReplay {
		bump, _ = p.rolledBack(a.bump.Addr())
	}
	end := pmem.Addr(bump)
	if end < a.dataBase || end > a.dataEnd {
		return nil, fmt.Errorf("core: bump cursor %#x outside the data region", uint64(end))
	}
	for cur := a.dataBase; cur < end; {
		if got := load(cur + hdrMagicOff); got != blockMagic {
			return nil, fmt.Errorf("core: corrupt block header at %#x (magic %#x)", uint64(cur), got)
		}
		layout, rewritten := p.recovered(cur + hdrLayoutOff)
		class, cells, _ := unpackLayout(layout)
		if class >= numClasses || headerSize+cells*CellSize > classSize(class) || cur+pmem.Addr(classSize(class)) > end {
			return nil, fmt.Errorf("core: corrupt block layout at %#x (class %d, %d cells)", uint64(cur), class, cells)
		}
		p.blocks = append(p.blocks, carvedBlock{start: cur, cells: int32(cells), class: int8(class), newLayout: rewritten})
		cur += pmem.Addr(classSize(class))
	}
	return p, nil
}

// rollsBack is the recovery rule (paper Fig. 5 lines 62-64): a cell tagged
// with the failed epoch N goes back to its backup.
//
// A drained plan also rolls back cells tagged N+1: the crash hit inside an
// async drain window, where N never durably committed but workers were
// already running N+1, so cells tagged N+1 may have reached NVMM too
// (evictions, collision flushes). For a cell untouched during N the backup
// is its value at the last durable cut; a cell modified in both N and N+1 —
// whose backup is the not-yet-durable cut-N value — is repaired from the
// collision log. Such a cell is retagged N: execution resumes in N, and a tag
// of N+1 would make the cell's next update in any epoch ≤ N+1 skip its undo
// logging.
func (p *recoveryPlan) rollsBack(tag uint64) bool {
	return tag == p.epoch || p.drained && tag == p.epoch+1
}

// recovered returns the value the cell at c holds once the plan is applied,
// and whether apply rewrites it. The collision log has the last word on a
// cell it names.
func (p *recoveryPlan) recovered(c pmem.Addr) (val uint64, rewritten bool) {
	if p.drained {
		if val, ok := p.replayed[c]; ok {
			return val, true
		}
	}
	return p.rolledBack(c)
}

// rolledBack is recovered by the rule alone.
func (p *recoveryPlan) rolledBack(c pmem.Addr) (val uint64, rewritten bool) {
	if p.rollsBack(p.load(c + cellEpochOff)) {
		return p.load(c + cellBackupOff), true
	}
	return p.load(c + cellRecordOff), false
}

// apply writes the plan into rt's heap — the image it was read from — in
// four fenced steps:
//
//  1. the arena's bump and free-list head cells, and the roots;
//  2. the collision log's replay: each entry names a cell whose last
//     durable-cut value an update in the epoch after the interrupted drain's
//     evicted from its backup, and step 1 restored such a cell only to the
//     not-yet-durable cut. Replay and the rule are mutually idempotent: a
//     replayed cell holds record = backup with the failed epoch's tag;
//  3. every carved block's layout cell the plan marked, so no header line
//     is read twice before step 4;
//  4. every carved block's next cell and declared cells, in up to
//     parallelism chunks (one below 64 blocks).
//
// Every cell rewritten is registered in the system flush list: execution
// resumes in the failed epoch, so later updates of these cells are not first
// touches and would otherwise never be flushed by the resumed epoch's
// checkpoint.
func (p *recoveryPlan) apply(rt *Runtime, rep *RecoveryReport, parallelism int) {
	h, a := rt.heap, p.arena
	var mu sync.Mutex
	meta := p.scan()
	meta.check(a.bump.Addr())
	for c := range a.heads {
		meta.check(a.heads[c].Addr())
	}
	for i := 0; i < pmem.NumRoots; i++ {
		meta.check(h.RootAddr(i))
	}
	meta.done(rt.sys, rep, &mu)

	f := rt.sysFlusher
	for _, e := range p.log {
		h.Store64(e.cell+cellRecordOff, e.val)
		h.Store64(e.cell+cellBackupOff, e.val)
		h.Store64(e.cell+cellEpochOff, p.epoch)
		f.CLWB(e.cell)
		rt.sys.AddModified(e.cell)
	}
	if p.drained {
		f.SFence()
	}
	rep.CollisionsApplied = len(p.log)

	layouts := p.scan()
	for _, b := range p.blocks {
		if b.newLayout {
			layouts.check(b.start + hdrLayoutOff)
		}
	}
	layouts.scanned = len(p.blocks) // the plan read every layout cell
	layouts.done(rt.sys, rep, &mu)
	rep.BlocksScanned = len(p.blocks)

	chunks := 1
	if parallelism >= 2 && len(p.blocks) >= 64 {
		chunks = parallelism
	}
	size := (len(p.blocks) + chunks - 1) / chunks
	scanBlocks := func(bs []carvedBlock) {
		s := p.scan()
		for _, b := range bs {
			s.check(b.start + hdrNextOff)
			for i := 0; i < int(b.cells); i++ {
				s.check(b.start + headerSize + pmem.Addr(i*CellSize))
			}
		}
		s.done(rt.sys, rep, &mu)
	}
	var wg sync.WaitGroup
	for lo := size; lo < len(p.blocks); lo += size {
		wg.Add(1)
		go func(bs []carvedBlock) {
			defer wg.Done()
			scanBlocks(bs)
		}(p.blocks[lo:min(lo+size, len(p.blocks))])
	}
	scanBlocks(p.blocks[:size])
	wg.Wait()
}

// cellScan applies the rule to cells one by one, on one goroutine, queueing
// every rolled-back cell's line on its own flusher.
type cellScan struct {
	p       *recoveryPlan
	h       *pmem.Heap
	f       *pmem.Flusher
	scanned int
	matched []pmem.Addr
}

func (p *recoveryPlan) scan() *cellScan {
	h := p.arena.heap
	return &cellScan{p: p, h: h, f: h.NewFlusher()}
}

func (s *cellScan) check(c pmem.Addr) {
	s.scanned++
	tag := s.h.Load64(c + cellEpochOff)
	if !s.p.rollsBack(tag) {
		return
	}
	s.h.Store64(c+cellRecordOff, s.h.Load64(c+cellBackupOff))
	if tag != s.p.epoch {
		s.h.Store64(c+cellEpochOff, s.p.epoch)
	}
	s.matched = append(s.matched, c)
	s.f.CLWB(c)
}

// done fences the scan's write-backs, then counts the scan into rep and
// registers its rolled-back cells in sys's flush list under mu.
func (s *cellScan) done(sys *Thread, rep *RecoveryReport, mu *sync.Mutex) {
	s.f.SFence()
	mu.Lock()
	defer mu.Unlock()
	rep.CellsScanned += s.scanned
	rep.CellsRolledBack += len(s.matched)
	for _, c := range s.matched {
		sys.AddModified(c)
	}
}
