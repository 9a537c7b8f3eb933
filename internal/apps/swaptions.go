package apps

import (
	"math"

	"github.com/respct/respct/internal/core"
)

// Swaptions (Parsec): price a portfolio of swaptions by Monte-Carlo
// simulation — a lockless, data-parallel workload (each thread owns a slice
// of the portfolio). The simulation here is a compact HJM-flavoured
// random-walk pricer with a deterministic per-trial PRNG, so transient and
// persistent runs agree bit-for-bit.

// swaptionPayoff simulates one Monte-Carlo trial for swaption s.
func swaptionPayoff(seed uint64, s, trial int) float64 {
	x := xorshift64(seed ^ uint64(s)*0x9E3779B97F4A7C15 ^ uint64(trial)*0xC2B2AE3D27D4EB4F)
	rate := 0.02 + float64(x%1000)/25000.0
	drift := 0.0
	for step := 0; step < 16; step++ {
		x = xorshift64(x)
		drift += (float64(x%2001) - 1000.0) / 1e6
	}
	payoff := math.Max(0, rate+drift-0.025)
	return payoff * 100.0
}

// swaptionTrials sums swaption s's payoffs over trials [lo, hi).
func swaptionTrials(seed uint64, s, lo, hi int) float64 {
	sum := 0.0
	for trial := lo; trial < hi; trial++ {
		sum += swaptionPayoff(seed, s, trial)
	}
	return sum
}

// SwaptionsTransient prices nSwaptions with trials each and returns the
// price vector's sum.
func SwaptionsTransient(nSwaptions, trials, threads int, seed uint64) float64 {
	prices := make([]float64, nSwaptions)
	fanOut(threads, func(th int) {
		lo, hi := splitRange(nSwaptions, threads, th)
		for s := lo; s < hi; s++ {
			prices[s] = swaptionTrials(seed, s, 0, trials) / float64(trials)
		}
	})
	total := 0.0
	for _, p := range prices {
		total += p
	}
	return total
}

const rpSwaptionBatch uint64 = 0x53777042617463

// per-swaption persistent cells: accumulated sum + completed trials
const swCellsPer = 2

// SwaptionsRespct is the persistent pricer: each swaption's accumulated
// payoff and completed-trial count are InCLL cells (WAR across restart
// points), with an RP after each batch of trials.
type SwaptionsRespct struct {
	*job
	n      int
	trials int
	batch  int
	seed   uint64
}

// NewSwaptions creates a persistent pricer; construct before starting the
// checkpointer.
func NewSwaptions(rt *core.Runtime, rootIdx, nSwaptions, trials, batch int, seed uint64) (*SwaptionsRespct, error) {
	return openedSwaptions(newJob(rt, "Swaptions", rootIdx, nSwaptions*swCellsPer,
		uint64(nSwaptions), uint64(trials), uint64(max(batch, 1)), seed))
}

// OpenSwaptions reattaches after recovery.
func OpenSwaptions(rt *core.Runtime, rootIdx int) (*SwaptionsRespct, error) {
	return openedSwaptions(openJob(rt, "Swaptions", rootIdx))
}

func openedSwaptions(j *job, err error) (*SwaptionsRespct, error) {
	if err != nil {
		return nil, err
	}
	return &SwaptionsRespct{job: j, n: int(j.param(0)), trials: int(j.param(1)), batch: int(j.param(2)), seed: j.param(3)}, nil
}

func (s *SwaptionsRespct) sumCell(i int) core.InCLL   { return s.cell(i * swCellsPer) }
func (s *SwaptionsRespct) trialCell(i int) core.InCLL { return s.cell(i*swCellsPer + 1) }

// Run executes (or resumes) the pricing with the runtime's workers.
func (s *SwaptionsRespct) Run() {
	s.run(func(t *core.Thread, th int) {
		lo, hi := splitRange(s.n, s.threads, th)
		for sw := lo; sw < hi; sw++ {
			for trial := int(t.Read(s.trialCell(sw))); trial < s.trials; {
				end := min(trial+s.batch, s.trials)
				sum := swaptionTrials(s.seed, sw, trial, end)
				trial = end
				t.UpdateFloat(s.sumCell(sw), t.ReadFloat(s.sumCell(sw))+sum)
				t.Update(s.trialCell(sw), uint64(trial))
				t.RP(rpSwaptionBatch)
			}
		}
	})
}

// Checksum returns the sum of the per-swaption prices.
func (s *SwaptionsRespct) Checksum() float64 {
	total := 0.0
	for i := 0; i < s.n; i++ {
		total += s.rt.ReadFloat(s.sumCell(i)) / float64(s.trials)
	}
	return total
}

// Progress returns the trials done and the trials in all.
func (s *SwaptionsRespct) Progress() (done, total int) {
	for i := 0; i < s.n; i++ {
		done += int(s.rt.Read(s.trialCell(i)))
	}
	return done, s.n * s.trials
}
