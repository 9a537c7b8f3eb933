package crash

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/structures"
)

// Job is a compute application of internal/apps as App drives it.
type Job interface {
	// Done reports whether the job has completed.
	Done() bool
	// Cells returns every application cell of the job's descriptor.
	Cells() []uint64
	// Progress returns the work units done and the units in all.
	Progress() (done, total int)
}

// AppSpec is one application for App: how to build it, reopen it and run
// it, and the output of its transient twin.
type AppSpec struct {
	New  func(rt *core.Runtime) (Job, error) // build the job on a fresh runtime
	Open func(rt *core.Runtime) (Job, error) // reopen it on a recovered one
	// Run runs (or resumes) j to completion and returns its output.
	Run func(j Job) []float64
	// Want is the output of the transient run (the oracle).
	Want []float64
	// Exact compares outputs exactly (counts); otherwise each entry must be
	// within 1e-9 relative (float sums, whose batching changes rounding).
	Exact bool
}

// doomedTicks is how many ticks App lets its job run past its last
// checkpoint before the crash: the failed epoch's work, which eviction may
// have pushed into NVMM in part and recovery must roll back.
const doomedTicks = 4

// App is one of the compute applications of the paper's §5.3, which, unlike
// the structures, is a job that runs to an end. Durable starts its Run on
// the runtime's workers. Tick checkpoints it until the crashAt-th
// checkpoint that finds it started and not done, then checkpoints no more
// and crashes the heap doomedTicks ticks later. Recover resumes the
// recovered job to completion and compares its output with the transient
// oracle. Its state is every job cell and the done flag, plus the dedup
// table when the job has one.
type App struct {
	single
	spec AppSpec
	job  Job // the running job

	ran     chan struct{} // closed when the crashed run has returned
	crashAt int
	midways int // certified states that found the job started and not done
	seen    int // the last certified state: 0 not started, 1 midway, 2 done
	doomed  int // ticks since the last checkpoint, once midways == crashAt

	// Recovered is the recovered job's progress before it resumed, and
	// Total the work in all (set by Recover).
	Recovered, Total int
	// Midway reports that the recovered job had started and was not done
	// (set by Recover): only then did the run test a resume.
	Midway bool
}

// NewApp builds spec's job on a fresh heap; Tick stops checkpointing it
// after the crashAt-th checkpoint that finds it midway.
func NewApp(env Env, spec AppSpec, crashAt int) (*App, error) {
	s, err := newSingle(env)
	if err != nil {
		return nil, err
	}
	a := &App{single: s, spec: spec, ran: make(chan struct{}), crashAt: crashAt}
	a.job, err = spec.New(s.RT)
	return a, err
}

// jobState reads a job's logical state.
func jobState(j Job) State {
	st := State{"done": strconv.FormatBool(j.Done())}
	for i, v := range j.Cells() {
		st["cell "+strconv.Itoa(i)] = strconv.FormatUint(v, 10)
	}
	if d, ok := j.(interface{ Table() *structures.RespctMap }); ok {
		for k, v := range mapState(d.Table()) {
			st["table "+k] = v
		}
	}
	return st
}

// State implements Subject. It also notes for Tick how far the certified
// job had got.
func (a *App) State(int) State {
	switch done, _ := a.job.Progress(); {
	case a.job.Done():
		a.seen = 2
	case done > 0:
		a.seen = 1
	}
	return jobState(a.job)
}

// Durable implements Subject: it makes the job durable and starts its run.
func (a *App) Durable() {
	a.single.Durable()
	go func() {
		defer close(a.ran)
		a.spec.Run(a.job)
	}()
}

// Tick checkpoints the job, or, past its crashAt-th midway checkpoint,
// counts down to the crash. A checkpoint that finds the job done crashes at
// once: nothing is left to resume.
func (a *App) Tick() {
	if a.midways == a.crashAt {
		if a.doomed++; a.doomed == doomedTicks {
			a.RT.Heap().Crash()
		}
		return
	}
	a.RT.Checkpoint()
	switch a.seen {
	case 1:
		a.midways++
	case 2:
		a.RT.Heap().Crash()
	}
}

// Recover implements Subject: it waits for the crashed run to return,
// recovers and reopens the job, takes its state, resumes it to completion
// under a fresh checkpointer and compares the output with the oracle.
func (a *App) Recover() ([]Recovered, error) {
	<-a.ran
	return a.recoverHeap(a.RT.Heap(), func(rt *core.Runtime) (State, error) {
		j, err := a.spec.Open(rt)
		if err != nil {
			return nil, err
		}
		st := jobState(j)
		a.Recovered, a.Total = j.Progress()
		a.Midway = !j.Done() && a.Recovered > 0 && a.Recovered < a.Total
		ck := rt.StartCheckpointer(time.Millisecond)
		got := a.spec.Run(j)
		ck.Stop()
		for i, w := range a.spec.Want {
			if g := got[i]; g != w && (a.spec.Exact || math.Abs(g-w) > 1e-9*math.Max(math.Abs(g), math.Abs(w))) {
				return st, fmt.Errorf("resumed from %d/%d, output %v, transient %v", a.Recovered, a.Total, got, a.spec.Want)
			}
		}
		return st, nil
	})
}
