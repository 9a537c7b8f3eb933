// Package apps contains miniature but faithful reimplementations of the
// compute-intensive applications of the paper's §5.3 — Phoenix MatMul and
// Linear Regression, Parsec Swaptions and Dedup — each in a transient
// variant and a ResPCT variant with explicit restart points. The ResPCT
// variants persist their inputs, outputs and progress counters in NVMM and
// can resume from the last checkpoint after a crash, which the crash soak
// rows of internal/crash exercise end to end.
//
// Restart-point placement follows the paper's methodology: an RP after each
// logical block of work. For Linear Regression and Swaptions the block size
// is a parameter — the paper reports a 9x slowdown with per-point RPs that
// drops to ~20% overhead with 1000-point batches (§5.3, "Positioning RPs"),
// and the same experiment is reproduced by the Fig. 13 harness and the
// ablation benchmarks.
package apps

// splitRange partitions [0,n) into `parts` near-equal half-open ranges.
func splitRange(n, parts, i int) (lo, hi int) {
	chunk := (n + parts - 1) / parts
	lo = i * chunk
	hi = min(lo+chunk, n)
	if lo > n {
		lo = n
	}
	return lo, hi
}

// xorshift64 is the deterministic PRNG used by the synthetic inputs, so
// transient and persistent variants compute identical results.
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
