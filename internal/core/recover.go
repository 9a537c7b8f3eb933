package core

import (
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
// Fig. 5). It reboots the heap if needed, reads the failed epoch from the
// persistent image, scans every InCLL cell in NVMM — the metadata cells, the
// 64 root cells, and every cell of every allocated block — and rolls back to
// its logged value each cell whose epoch tag equals the failed epoch. The
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
	rt := &Runtime{heap: h, cfg: cfg}
	rt.sysFlusher = h.NewFlusher()
	rt.sys = newThread(rt, -1)

	arena := newArenaView(h)
	if err := arena.checkFormatMarker(); err != nil {
		return nil, nil, err
	}
	rt.arena = arena

	failedEpoch := h.Load64(h.EpochAddr())
	if failedEpoch == 0 {
		return nil, nil, fmt.Errorf("core: formatted heap with epoch 0 — torn format")
	}
	rt.epochCache.Store(failedEpoch)
	rt.durableEpoch.Store(failedEpoch)

	// If the collision-log guard epoch equals the failed epoch, the crash
	// hit between an async cut of failedEpoch and its durable commit:
	// epoch failedEpoch+1 was already executing, so its cells must be
	// rolled back too, and backups destroyed by double-epoch collisions
	// must be repaired from the log. The epoch counter is monotonic, so a
	// guard from any *committed* drain can never equal a failed epoch.
	drained := h.Load64(arena.collHdrAddr()) == failedEpoch

	rep := &RecoveryReport{FailedEpoch: failedEpoch, DrainInterrupted: drained}
	rt.flight, rep.FlightEvents = telemetry.OpenFlightRecorder(h, arena.flightHdrAddr(), flightEntries)
	f := rt.sysFlusher

	// Every cell tagged with the failed epoch is rolled back, flushed, and
	// re-registered in the system flush list: execution resumes in the
	// failed epoch, so later updates of these cells are not first touches
	// and would otherwise never be flushed by the resumed epoch's
	// checkpoint.
	rollback := func(a pmem.Addr) {
		rep.CellsScanned++
		if rollbackCell(h, a, failedEpoch, drained) {
			rep.CellsRolledBack++
			f.CLWB(a)
			rt.sys.AddModified(a)
		}
	}

	// Metadata and root cells first: the bump cursor gates the block scan.
	rollback(arena.bump.Addr())
	for c := 0; c < numClasses; c++ {
		rollback(arena.heads[c].Addr())
	}
	for i := 0; i < pmem.NumRoots; i++ {
		rollback(h.RootAddr(i))
	}
	f.SFence()

	// Replay the collision log before walking the carved region: each entry
	// names an InCLL cell whose last durable-cut value was evicted from its
	// backup by an update in the epoch after the interrupted drain's, and
	// the rollback above restored such cells only to the *not-yet-durable*
	// cut. The bump cursor itself can be one of them (carves in both epochs)
	// — and the not-yet-durable bump would extend the walk into blocks whose
	// headers never reached NVMM — so the log must have its final word
	// first. Replay and the per-cell rollback are mutually idempotent: a
	// replayed cell holds record = backup with the failed epoch's tag, which
	// later rollback passes rewrite to the same value.
	replayLog := func() error {
		if !drained {
			return nil
		}
		cnt := h.Load64(arena.collHdrAddr() + 8)
		if cnt > collLogEntries {
			return fmt.Errorf("core: corrupt collision log (count %d)", cnt)
		}
		for i := 0; i < int(cnt); i++ {
			ent := arena.collEntryAddr(i)
			a := pmem.Addr(h.Load64(ent))
			val := h.Load64(ent + 8)
			if a%pmem.WordSize != 0 || int64(a) <= 0 || int64(a)+3*pmem.WordSize > h.Size() ||
				uint64(a)%pmem.LineSize > pmem.LineSize-3*pmem.WordSize {
				return fmt.Errorf("core: corrupt collision log entry %d (addr %#x)", i, uint64(a))
			}
			h.Store64(a+cellRecordOff, val)
			h.Store64(a+cellBackupOff, val)
			h.Store64(a+cellEpochOff, failedEpoch)
			f.CLWB(a)
			rt.sys.AddModified(a)
		}
		rep.CollisionsApplied = int(cnt)
		f.SFence()
		return nil
	}

	// Walk the carved region block by block. Headers of every reachable
	// block were flushed by the checkpoint that made them reachable, so
	// magic and layout are trustworthy after the layout cell's own
	// rollback.
	var blocks []pmem.Addr
	walkBlocks := func() error {
		cur := arena.dataBase
		end := pmem.Addr(h.Load64(arena.bump.Addr() + cellRecordOff))
		for cur < end {
			if got := h.Load64(cur + hdrMagicOff); got != blockMagic {
				return fmt.Errorf("core: corrupt block header at %#x (magic %#x)", uint64(cur), got)
			}
			rollback(cur + hdrLayoutOff)
			class, _, _ := unpackLayout(h.Load64(cur + hdrLayoutOff + cellRecordOff))
			if class < 0 || class >= numClasses {
				return fmt.Errorf("core: corrupt block layout at %#x (class %d)", uint64(cur), class)
			}
			blocks = append(blocks, cur)
			cur += pmem.Addr(classSize(class))
		}
		rep.BlocksScanned = len(blocks)
		f.SFence()
		return nil
	}

	// Replay strictly before the walk: the log holds the bump cursor's last
	// durable-cut value, and the rolled-back (not-yet-durable) bump would
	// extend the walk into blocks whose headers never reached NVMM.
	// faultWalkBeforeReplay re-seeds the historical inversion of this order
	// for the regression fixture.
	steps := []func() error{replayLog, walkBlocks}
	if faultWalkBeforeReplay {
		steps[0], steps[1] = steps[1], steps[0]
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}

	scanBlock := func(block pmem.Addr, fl *pmem.Flusher, matched *[]pmem.Addr) (scanned int) {
		_, cells, _ := unpackLayout(h.Load64(block + hdrLayoutOff + cellRecordOff))
		check := func(a pmem.Addr) {
			scanned++
			if rollbackCell(h, a, failedEpoch, drained) {
				*matched = append(*matched, a)
				fl.CLWB(a)
			}
		}
		check(block + hdrNextOff)
		payload := block + headerSize
		for i := 0; i < cells; i++ {
			check(payload + pmem.Addr(i*CellSize))
		}
		return scanned
	}

	registerMatches := func(matched []pmem.Addr) {
		rep.CellsRolledBack += len(matched)
		for _, a := range matched {
			rt.sys.AddModified(a)
		}
	}

	if parallelism < 2 || len(blocks) < 64 {
		var matched []pmem.Addr
		for _, b := range blocks {
			rep.CellsScanned += scanBlock(b, f, &matched)
		}
		f.SFence()
		registerMatches(matched)
	} else {
		var wg sync.WaitGroup
		var mu sync.Mutex
		chunk := (len(blocks) + parallelism - 1) / parallelism
		for g := 0; g < parallelism; g++ {
			lo := g * chunk
			hi := min(lo+chunk, len(blocks))
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(bs []pmem.Addr) {
				defer wg.Done()
				fl := h.NewFlusher()
				var matched []pmem.Addr
				scanned := 0
				for _, b := range bs {
					scanned += scanBlock(b, fl, &matched)
				}
				fl.SFence()
				mu.Lock()
				rep.CellsScanned += scanned
				registerMatches(matched)
				mu.Unlock()
			}(blocks[lo:hi])
		}
		wg.Wait()
	}

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
	rt.attachSanitizer(failedEpoch, true)

	rep.Duration = time.Since(start)
	var drainedAux uint64
	if drained {
		drainedAux = 1
	}
	rt.flight.Record(telemetry.FlightRecovery, failedEpoch, uint64(rep.CellsRolledBack), drainedAux)
	return rt, rep, nil
}
