package apps

import (
	"fmt"
	"sync"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
)

// job is the persistent skeleton every application shares: one descriptor
// block under a root slot holding a done cell, the application's InCLL
// cells and its raw parameters. The done cell's spare word records the
// application cell count and the first raw word the thread count, so
// reattaching needs nothing but the root slot.
type job struct {
	rt      *core.Runtime
	desc    pmem.Addr
	cells   int // application cells
	threads int // workers the job partitions its work over
}

// newJob allocates a descriptor with `cells` zeroed application cells and
// params as its raw trailer, for the runtime's thread count, and publishes
// it under root slot rootIdx. Construct before starting the checkpointer.
func newJob(rt *core.Runtime, name string, rootIdx, cells int, params ...uint64) (*job, error) {
	sys := rt.Sys()
	desc := rt.Arena().Alloc(sys, 1+cells, 1+len(params))
	if desc == pmem.NilAddr {
		return nil, fmt.Errorf("apps: heap exhausted for %s descriptor (%d cells)", name, cells)
	}
	j := &job{rt: rt, desc: desc, cells: cells, threads: rt.Threads()}
	for i := 0; i <= cells; i++ {
		sys.Init(core.Cell(desc, i), 0)
	}
	sys.StoreTracked(core.CellAux(desc, 0), uint64(cells))
	raw := core.RawBase(desc, 1+cells)
	sys.StoreTracked(raw, uint64(j.threads))
	for i, p := range params {
		sys.StoreTracked(raw+pmem.Addr(8*(i+1)), p)
	}
	sys.Update(rt.RootInCLL(rootIdx), uint64(desc))
	return j, nil
}

// openJob reattaches to the descriptor under root slot rootIdx after
// recovery. It must be present with a cell count that fits the heap, and
// the runtime must have at least as many threads as the job.
func openJob(rt *core.Runtime, name string, rootIdx int) (*job, error) {
	desc := rt.ReadAddr(rt.RootInCLL(rootIdx))
	if desc == pmem.NilAddr {
		return nil, fmt.Errorf("apps: no %s under root %d", name, rootIdx)
	}
	h := rt.Heap()
	j := &job{rt: rt, desc: desc, cells: int(h.Load64(core.CellAux(desc, 0)))}
	if j.cells < 0 || j.cells > int(h.Size())/core.CellSize || int64(core.RawBase(desc, 1+j.cells)) >= h.Size() {
		return nil, fmt.Errorf("apps: %s descriptor at %#x has %d cells", name, uint64(desc), j.cells)
	}
	j.threads = int(h.Load64(core.RawBase(desc, 1+j.cells)))
	if j.threads <= 0 || j.threads > rt.Threads() {
		return nil, fmt.Errorf("apps: %s descriptor at %#x has %d threads, runtime %d",
			name, uint64(desc), j.threads, rt.Threads())
	}
	return j, nil
}

// param returns raw parameter i as passed to newJob.
func (j *job) param(i int) uint64 {
	return j.rt.Heap().Load64(core.RawBase(j.desc, 1+j.cells) + pmem.Addr(8*(i+1)))
}

// cell returns application cell i.
func (j *job) cell(i int) core.InCLL { return core.Cell(j.desc, 1+i) }

// Done reports whether the job has completed.
func (j *job) Done() bool { return j.rt.Read(core.Cell(j.desc, 0)) != 0 }

// Cells returns the value of every application cell, in order.
func (j *job) Cells() []uint64 {
	out := make([]uint64, j.cells)
	for i := range out {
		out[i] = j.rt.Read(j.cell(i))
	}
	return out
}

// run executes (or resumes) the job: body runs on every job thread, each
// opening its worker's allow window as it returns, then done commits. A
// done job runs nothing; it only opens every worker's window, so a running
// checkpointer is not gated on threads that will never run.
func (j *job) run(body func(t *core.Thread, th int)) {
	if j.Done() {
		for i := 0; i < j.rt.Threads(); i++ {
			j.rt.Thread(i).CheckpointAllow()
		}
		return
	}
	fanOut(j.threads, func(th int) {
		t := j.rt.Thread(th)
		body(t, th)
		t.CheckpointAllow()
	})
	j.rt.ExclusiveSys(func(sys *core.Thread) { sys.Update(core.Cell(j.desc, 0), 1) })
}

// fanOut runs f(0) … f(threads-1) on their own goroutines and waits for
// all of them.
func fanOut(threads int, f func(th int)) {
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(th)
		}()
	}
	wg.Wait()
}
