package crash

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
)

// Soak is a row of the concurrent driver: Threads goroutines run Op against
// a subject built on fresh heaps while a core.Checkpointer runs Tick and a
// chaos evictor pushes partial state into NVMM at arbitrary moments; then
// every heap crashes and the Checker compares the recovery with what the last
// completed checkpoint certified.
type Soak[S Subject] struct {
	// New builds the subject for one seed (chaos heaps are seeded from it).
	New func(seed int64) (S, error)

	// Threads is the worker count.
	Threads int
	// Op is one operation of worker th, its i-th. Each worker draws from its
	// own RNG, seeded from the run's seed and its index.
	Op func(s S, th, i int, rng *rand.Rand)

	// Interval is the driver's interval: each tick starts Interval after
	// the previous one returned. Zero runs no driver, for subjects that
	// schedule their own checkpoints.
	Interval time.Duration
	// Tick is one tick (nil: one checkpoint of every runtime). Ticks stop
	// at the crash.
	Tick func(s S)

	// EvictRate is the chaos evictor's probe rate on every heap; 0 runs
	// none.
	EvictRate int

	// CrashAfter is when the crash fires, from the start of the run. When
	// it is nil a tick or a drain fires it instead (below).
	CrashAfter func(seed int64) time.Duration
	// CrashTicks crashes right after that many ticks.
	CrashTicks int

	// CrashDrain (asynchronous runtimes) crashes during the k-th drain
	// entered after Durable (1-based), at its start; recovery must then
	// report that drain's epoch as failed.
	CrashDrain uint64
	// PreCommit moves the CrashDrain crash to after the drain's flush, just
	// before its epoch persists.
	PreCommit bool
	// DrainDelay holds every drain open that long at its start, so workers
	// race the drain window.
	DrainDelay time.Duration

	// Vacuous judges whether a checked run tested nothing; nil means it
	// certified only the empty state before its crash. RunSeeds retries a
	// row whose every run was vacuous.
	Vacuous func(s S) bool
}

// SoakReport describes one soak run. Key counts are summed over heaps.
type SoakReport struct {
	Checkpoints       uint64   // checkpoints completed before the crash, over every runtime
	CertifiedKeys     int      // entries in the states certified at the failed epochs' last checkpoints
	RecoveredKeys     int      // entries in the recovered states
	FailedEpoch       uint64   // heap 0's interrupted epoch
	FailedEpochs      []uint64 // every heap's interrupted epoch (they differ under staggering)
	OpsBeforeCrash    uint64   // worker ops completed when the crash fired
	Drains            uint64   // background drains entered before the crash
	DrainInterrupted  bool     // recovery found an uncommitted drain
	CollisionsLogged  uint64   // worker undo-log appends during drain windows
	CollisionsApplied int      // collision-log entries recovery replayed
	CellsRolledBack   int      // InCLL cells recovery rolled back
	Vacuous           bool     // the run tested nothing (Soak.Vacuous)

	// Period is the driver's achieved period (Checkpointer.EffectivePeriod;
	// zero without a driver).
	Period time.Duration
}

// Run soaks the row once.
func (r Soak[S]) Run(seed int64) (*SoakReport, error) { return r.run(seed, 1) }

// stretch multiplies the CrashAfter delay.
func (r Soak[S]) run(seed int64, stretch time.Duration) (*SoakReport, error) {
	s, err := r.New(seed)
	if err != nil {
		return nil, err
	}
	c := Certify(s)
	s.Durable()
	rts := s.Runtimes()
	h0 := rts[0].Heap()
	crashAll := func() {
		for _, rt := range rts {
			rt.Heap().Crash()
		}
	}

	var drains, crashedDrain atomic.Uint64
	if r.CrashDrain != 0 || r.DrainDelay > 0 {
		killAt := func(n uint64, preCommit bool, ending uint64) {
			if n == r.CrashDrain && preCommit == r.PreCommit {
				crashedDrain.Store(ending)
				h0.Crash()
			}
		}
		rts[0].SetDrainHook(func(ending uint64, preCommit bool) {
			if h0.Crashed() {
				return
			}
			if preCommit {
				killAt(drains.Load(), true, ending)
				return
			}
			n := drains.Add(1)
			// Dwell with workers running: the next epoch's updates collide
			// with the cut's pending lines while the drain is held open.
			time.Sleep(r.DrainDelay)
			killAt(n, false, ending)
		})
	}

	ticks := 0
	driver := core.StartCheckpointer(r.Interval, func() core.CheckpointInfo {
		if h0.Crashed() {
			return core.CheckpointInfo{}
		}
		if r.Tick != nil {
			r.Tick(s)
		} else {
			for _, rt := range rts {
				rt.Checkpoint()
			}
		}
		if ticks++; ticks == r.CrashTicks {
			crashAll()
		}
		return core.CheckpointInfo{}
	})
	var evictors []*pmem.Evictor
	if r.EvictRate > 0 {
		for _, rt := range rts {
			ev := pmem.NewEvictor(rt.Heap(), r.EvictRate)
			ev.Start()
			evictors = append(evictors, ev)
		}
	}

	var halt atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for th := 0; th < r.Threads; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(th)*31))
			for i := 0; !halt.Load(); i++ {
				r.Op(s, th, i, rng)
				ops.Add(1)
			}
			for _, rt := range rts {
				rt.Thread(th).CheckpointAllow()
			}
		}()
	}

	if r.CrashAfter != nil {
		time.Sleep(r.CrashAfter(seed) * stretch)
	} else {
		// A tick or the drain hook pulls the trigger; wait for it (bounded,
		// in case the run never gets that far).
		deadline := time.Now().Add(time.Duration(int(r.CrashDrain)+r.CrashTicks+16) * 4 * r.Interval)
		for !h0.Crashed() && time.Now().Before(deadline) {
			time.Sleep(r.Interval / 4)
		}
	}
	crashAll()
	halt.Store(true)
	wg.Wait()
	for _, ev := range evictors {
		ev.Stop()
	}
	driver.Stop()

	rep := &SoakReport{OpsBeforeCrash: ops.Load(), Drains: drains.Load(), Period: driver.EffectivePeriod()}
	for _, rt := range rts {
		// Let any zombie drain finish before recovery reopens the heap's
		// volatile image underneath it.
		rt.WaitDrain()
		st := rt.Stats()
		rep.Checkpoints += st.Checkpoints
		rep.CollisionsLogged += st.CollisionsLogged
	}
	recs, err := c.Check()
	for i, rv := range recs {
		rep.FailedEpochs = append(rep.FailedEpochs, rv.FailedEpoch)
		rep.CertifiedKeys += len(c.Certified(i)[rv.FailedEpoch-1])
		rep.RecoveredKeys += len(rv.State)
		rep.DrainInterrupted = rep.DrainInterrupted || rv.DrainInterrupted
		rep.CollisionsApplied += rv.CollisionsApplied
		rep.CellsRolledBack += rv.CellsRolledBack
	}
	if len(recs) > 0 {
		rep.FailedEpoch = recs[0].FailedEpoch
	}
	if rep.Vacuous = rep.CertifiedKeys == 0; r.Vacuous != nil {
		rep.Vacuous = r.Vacuous(s)
	}
	if err != nil {
		return rep, err
	}
	if e := crashedDrain.Load(); e != 0 && rep.FailedEpoch != e {
		return rep, fmt.Errorf("killed inside the drain of epoch %d but recovery failed epoch %d", e, rep.FailedEpoch)
	}
	return rep, nil
}

// RunSeeds soaks the row once per seed, handing each run to each (which
// runs it, e.g. inside a subtest). A row whose every run was vacuous — by
// default, crashed before certifying a non-empty state, so it compared only
// empty states — proves nothing: it is retried on up to four more seeds
// (101–104), stopping at the first run that is not, and fails if none is.
// A slow host can lose every short run that way, so in rows that crash by
// CrashAfter the retries wait eight times as long; rows that crash by
// CrashTicks, CrashDrain or their own Tick keep their timing and only
// change seed.
func (r Soak[S]) RunSeeds(seeds []int64, each func(seed int64, run func() (*SoakReport, error))) error {
	certified := false
	soak := func(seed int64, stretch time.Duration) {
		each(seed, func() (*SoakReport, error) {
			rep, err := r.run(seed, stretch)
			certified = certified || (err == nil && !rep.Vacuous)
			return rep, err
		})
	}
	for _, seed := range seeds {
		soak(seed, 1)
	}
	for seed := int64(101); seed <= 104 && !certified; seed++ {
		soak(seed, 8)
	}
	if !certified {
		return fmt.Errorf("crash: vacuous soak: every run tested nothing (by default: certified only the empty state before its crash)")
	}
	return nil
}

// MapSoakConfig is the shape of the map and queue rows (respct-crash's
// flags).
type MapSoakConfig struct {
	Threads   int           // concurrent worker goroutines
	Buckets   int           // RespctMap bucket count
	KeySpace  uint64        // distinct keys the workers hammer
	EvictRate int           // evictor probe rate
	Interval  time.Duration // checkpoint period
	HeapBytes int64         // heap size (0 = 256 MiB)
}

func (cfg MapSoakConfig) env(seed int64) Env {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 256 << 20
	}
	return Env{
		Heap:     pmem.Config{Size: cfg.HeapBytes, Chaos: true, Seed: seed},
		Core:     core.Config{Threads: cfg.Threads},
		Recovery: 4,
	}
}

// MapSoak is the map row: workers insert, remove and look up random keys
// under periodic checkpoints and chaos eviction, and the crash lands
// (seed%7+2) half-intervals in.
func MapSoak(cfg MapSoakConfig) Soak[*Map] {
	return Soak[*Map]{
		New:     func(seed int64) (*Map, error) { return NewMap(cfg.env(seed), cfg.Buckets) },
		Threads: cfg.Threads,
		Op: func(s *Map, th, _ int, rng *rand.Rand) {
			k := uint64(rng.Int63n(int64(cfg.KeySpace))) + 1
			switch rng.Intn(3) {
			case 0:
				s.M.Insert(th, k, k*2+uint64(th))
			case 1:
				s.M.Remove(th, k)
			default:
				s.M.Get(th, k)
			}
			s.M.PerOp(th)
		},
		Interval:   cfg.Interval,
		EvictRate:  cfg.EvictRate,
		CrashAfter: func(seed int64) time.Duration { return time.Duration(seed%7+2) * cfg.Interval / 2 },
	}
}

// QueueSoak is the FIFO analogue of MapSoak: workers enqueue and dequeue in
// equal measure, and the crash lands (seed%5+2) half-intervals in.
func QueueSoak(cfg MapSoakConfig) Soak[*Queue] {
	return Soak[*Queue]{
		New:     func(seed int64) (*Queue, error) { return NewQueue(cfg.env(seed)) },
		Threads: cfg.Threads,
		Op: func(s *Queue, th, i int, rng *rand.Rand) {
			if rng.Intn(2) == 0 {
				s.Q.Enqueue(th, uint64(th)<<32|uint64(i)+1)
			} else {
				s.Q.Dequeue(th)
			}
			s.Q.PerOp(th)
		},
		Interval:   cfg.Interval,
		EvictRate:  cfg.EvictRate,
		CrashAfter: func(seed int64) time.Duration { return time.Duration(seed%5+2) * cfg.Interval / 2 },
	}
}
