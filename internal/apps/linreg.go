package apps

import (
	"github.com/respct/respct/internal/core"
)

// Linear Regression (Phoenix): accumulate SX, SY, SXX, SYY, SXY over a point
// stream, partitioned across threads MapReduce-style, then combine into the
// slope/intercept. The persistent variant keeps per-thread partial sums in
// InCLL cells — they carry a write-after-read dependency across restart
// points, the textbook case for logging (§3.3.2) — plus a progress index.

// LRResult is the regression outcome.
type LRResult struct {
	SX, SY, SXX, SYY, SXY float64
	N                     int
}

// Slope returns the fitted slope.
func (r LRResult) Slope() float64 {
	n := float64(r.N)
	den := n*r.SXX - r.SX*r.SX
	if den == 0 {
		return 0
	}
	return (n*r.SXY - r.SX*r.SY) / den
}

// Intercept returns the fitted intercept.
func (r LRResult) Intercept() float64 {
	n := float64(r.N)
	return (r.SY - r.Slope()*r.SX) / n
}

// sums returns the five sums in field order.
func (r *LRResult) sums() [5]*float64 { return [5]*float64{&r.SX, &r.SY, &r.SXX, &r.SYY, &r.SXY} }

func lrPoint(seed uint64, i int) (x, y float64) {
	v := xorshift64(seed + uint64(i)*2654435761)
	x = float64(v%10000) / 100.0
	y = 3.5*x + 11 + float64((v>>32)%100)/50.0 - 1.0
	return x, y
}

// lrSums accumulates points [lo, hi) into r.
func lrSums(r *LRResult, seed uint64, lo, hi int) {
	for i := lo; i < hi; i++ {
		x, y := lrPoint(seed, i)
		r.SX += x
		r.SY += y
		r.SXX += x * x
		r.SYY += y * y
		r.SXY += x * y
	}
}

// LRTransient runs the transient regression over n synthetic points.
func LRTransient(n, threads int, seed uint64) LRResult {
	partial := make([]LRResult, threads)
	fanOut(threads, func(th int) {
		lo, hi := splitRange(n, threads, th)
		lrSums(&partial[th], seed, lo, hi)
	})
	total := LRResult{N: n}
	for _, p := range partial {
		for s, v := range p.sums() {
			*total.sums()[s] += *v
		}
	}
	return total
}

const rpLRBatch uint64 = 0x4c52426174

// per-thread persistent cells: points done + 5 sums
const lrCellsPerThread = 6

// LRRespct is the persistent regression with a configurable RP batch size
// (the paper's positioning experiment: batch 1 is ~9x slower than the
// transient run; batch 1000 brings the overhead to ~20%).
type LRRespct struct {
	*job
	n     int
	batch int
	seed  uint64
}

// NewLR creates a persistent regression over n synthetic points with a
// restart point after each `batch` points. Construct before starting the
// checkpointer.
func NewLR(rt *core.Runtime, rootIdx, n, batch int, seed uint64) (*LRRespct, error) {
	return openedLR(newJob(rt, "LR", rootIdx, rt.Threads()*lrCellsPerThread, uint64(n), uint64(max(batch, 1)), seed))
}

// OpenLR reattaches after recovery.
func OpenLR(rt *core.Runtime, rootIdx int) (*LRRespct, error) {
	return openedLR(openJob(rt, "LR", rootIdx))
}

func openedLR(j *job, err error) (*LRRespct, error) {
	if err != nil {
		return nil, err
	}
	return &LRRespct{job: j, n: int(j.param(0)), batch: int(j.param(1)), seed: j.param(2)}, nil
}

func (l *LRRespct) progressCell(th int) core.InCLL { return l.cell(th * lrCellsPerThread) }
func (l *LRRespct) sumCell(th, s int) core.InCLL   { return l.cell(th*lrCellsPerThread + 1 + s) }

// Run executes (or resumes) the regression. Partial sums are updated in
// DRAM within a batch and folded into their InCLL cells at the batch
// boundary, right before the restart point — re-executing a torn batch from
// the rolled-back sums is then exact.
func (l *LRRespct) Run() {
	l.run(func(t *core.Thread, th int) {
		lo, hi := splitRange(l.n, l.threads, th)
		for i := lo + int(t.Read(l.progressCell(th))); i < hi; {
			end := min(i+l.batch, hi)
			var batch LRResult
			lrSums(&batch, l.seed, i, end)
			for s, v := range batch.sums() {
				t.UpdateFloat(l.sumCell(th, s), t.ReadFloat(l.sumCell(th, s))+*v)
			}
			i = end
			t.Update(l.progressCell(th), uint64(i-lo))
			t.RP(rpLRBatch)
		}
	})
}

// Result combines the per-thread partial sums.
func (l *LRRespct) Result() LRResult {
	total := LRResult{N: l.n}
	for th := 0; th < l.threads; th++ {
		for s, v := range total.sums() {
			*v += l.rt.ReadFloat(l.sumCell(th, s))
		}
	}
	return total
}

// Progress returns the points done and the points in all.
func (l *LRRespct) Progress() (done, total int) {
	for th := 0; th < l.threads; th++ {
		done += int(l.rt.Read(l.progressCell(th)))
	}
	return done, l.n
}
