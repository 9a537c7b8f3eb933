package apps

import (
	"fmt"
	"math"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
)

// MatMul computes C = A x B over n x n float64 matrices with rows
// partitioned across threads, mirroring the Phoenix benchmark.

// MatMulTransient runs the transient version and returns the checksum
// (sum of C's entries).
func MatMulTransient(n, threads int, seed uint64) float64 {
	a, b := matMulInputs(n, seed)
	c := make([]float64, n*n)
	fanOut(threads, func(th int) {
		lo, hi := splitRange(n, threads, th)
		for r := lo; r < hi; r++ {
			for col := 0; col < n; col++ {
				c[r*n+col] = dot(a, b, n, r, col)
			}
		}
	})
	checksum := 0.0
	for _, v := range c {
		checksum += v
	}
	return checksum
}

// matMulInputs derives the two input matrices from the seed.
func matMulInputs(n int, seed uint64) (a, b []float64) {
	a, b = make([]float64, n*n), make([]float64, n*n)
	fillMatrix(a, seed)
	fillMatrix(b, seed+1)
	return a, b
}

func fillMatrix(m []float64, seed uint64) {
	x := seed | 1
	for i := range m {
		x = xorshift64(x)
		m[i] = float64(x%1000) / 997.0
	}
}

// dot is entry (r, col) of A x B.
func dot(a, b []float64, n, r, col int) float64 {
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += a[r*n+k] * b[k*n+col]
	}
	return sum
}

// rpMatMulRow is the restart point after each completed row (one per
// logical block, the paper's recipe).
const rpMatMulRow uint64 = 0x4d4d526f77

// MatMulRespct is the persistent matrix multiplication: the output matrix
// and per-thread row progress live in NVMM; the input matrices stay in DRAM
// and are re-derived from the recorded seed on restart, exactly as the
// Phoenix original re-reads its memory-mapped input files — inputs are not
// part of the persistent state because reloading them is idempotent.
//
// Job cell th counts the rows thread th has completed.
type MatMulRespct struct {
	*job
	n    int
	a, b []float64 // DRAM inputs, regenerated from the seed
	c    pmem.Addr // persistent raw float-bits output
}

// NewMatMul allocates and initialises a persistent MatMul instance for the
// runtime's thread count.
func NewMatMul(rt *core.Runtime, rootIdx, n int, seed uint64) (*MatMulRespct, error) {
	c := rt.Arena().AllocRaw(rt.Sys(), n*n)
	if c == pmem.NilAddr {
		return nil, fmt.Errorf("apps: heap exhausted for %dx%d output matrix", n, n)
	}
	return openedMatMul(newJob(rt, "MatMul", rootIdx, rt.Threads(), uint64(n), seed, uint64(c)))
}

// OpenMatMul reattaches to a persistent MatMul after recovery. The runtime
// must have at least as many threads as the original.
func OpenMatMul(rt *core.Runtime, rootIdx int) (*MatMulRespct, error) {
	return openedMatMul(openJob(rt, "MatMul", rootIdx))
}

func openedMatMul(j *job, err error) (*MatMulRespct, error) {
	if err != nil {
		return nil, err
	}
	m := &MatMulRespct{job: j, n: int(j.param(0)), c: pmem.Addr(j.param(2))}
	m.a, m.b = matMulInputs(m.n, j.param(1))
	return m, nil
}

// Run executes (or resumes) the multiplication with the runtime's workers.
// Each thread resumes after its last counted row; rows are recomputed
// idempotently (C is write-only between restart points).
func (m *MatMulRespct) Run() {
	n := m.n
	m.run(func(t *core.Thread, th int) {
		lo, hi := splitRange(n, m.threads, th)
		for r := lo + int(t.Read(m.cell(th))); r < hi; r++ {
			for col := 0; col < n; col++ {
				t.StoreTracked(m.c+pmem.Addr((r*n+col)*8), math.Float64bits(dot(m.a, m.b, n, r, col)))
			}
			// Progress advances only after the row's stores: a crash
			// re-executes the unfinished row (write-only, idempotent).
			t.Update(m.cell(th), uint64(r+1-lo))
			t.RP(rpMatMulRow)
		}
	})
}

// Checksum returns the sum of C's entries.
func (m *MatMulRespct) Checksum() float64 {
	h := m.rt.Heap()
	sum := 0.0
	for i := 0; i < m.n*m.n; i++ {
		sum += math.Float64frombits(h.Load64(m.c + pmem.Addr(i*8)))
	}
	return sum
}

// RowsDone returns how many output rows are complete according to the
// persistent progress counters (after recovery: how much work survived).
func (m *MatMulRespct) RowsDone() int {
	total := 0
	for _, rows := range m.Cells() {
		total += int(rows)
	}
	return total
}

// Progress returns the rows done and the rows in all.
func (m *MatMulRespct) Progress() (done, total int) { return m.RowsDone(), m.n }
