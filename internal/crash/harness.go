package crash

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/respct/respct/internal/core"
)

// State is the canonical logical state of one heap: a flat string→string
// map. Each subject converts its structure's snapshot to it (RespctMap's
// uint64 pairs, a queue's positions, a store's key/value strings) so one
// checker serves every subject.
type State map[string]string

// Certified maps a checkpoint's ending epoch to the logical state certified
// at that boundary, captured inside the quiesced hook while every worker was
// parked and before any line was flushed — the state the paper's BDL contract
// obliges recovery to reproduce if the next checkpoint does not complete.
type Certified map[uint64]State

// Recovered is one heap's post-recovery observation: what the recovery pass
// reported (the failed epoch read from the persistent image, drain and
// collision-log facts) and the logical state it reconstructed.
type Recovered struct {
	core.RecoveryReport
	State State // the logical state reconstructed
}

// Subject is one system under crash test: its runtimes (one per heap), its
// logical state, and how it comes back after a crash. Drivers build a fresh
// subject per run, hand it to Certify, make it durable, drive it, crash its
// heaps and Check it.
type Subject interface {
	// Runtimes returns the subject's runtimes in heap order.
	Runtimes() []*core.Runtime

	// State returns heap i's logical state. It runs inside runtime i's
	// quiesced hook, so it must only read.
	State(i int) State

	// Durable makes the freshly built subject durable with one checkpoint
	// per runtime, which the certify hooks already see. A subject that
	// schedules its own checkpoints starts doing so here.
	Durable()

	// Recover recovers every crashed heap, reopens the subject on the
	// recovered runtimes and returns each heap's report and state. Checks
	// that only hold after recovery (index agreement, routing, record
	// integrity) fail it with an error.
	Recover() ([]Recovered, error)
}

// Checker holds what a subject's checkpoints certified and checks its
// recovery against it: the one certify → crash → recover → compare loop
// behind every soak and every explored crash point.
type Checker struct {
	s         Subject
	mu        sync.Mutex // quiesced hooks of different runtimes run concurrently
	certified []Certified
}

// Certify installs the certify hook on every runtime of s: each checkpoint
// records State(i) under the epoch it closes. Call it before the subject's
// first checkpoint.
func Certify(s Subject) *Checker {
	rts := s.Runtimes()
	c := &Checker{s: s, certified: make([]Certified, len(rts))}
	for i, rt := range rts {
		c.certified[i] = Certified{}
		rt.SetQuiescedHook(func(ending uint64) {
			st := s.State(i)
			c.mu.Lock()
			c.certified[i][ending] = st
			c.mu.Unlock()
		})
	}
	return c
}

// Certified returns heap i's certified states.
func (c *Checker) Certified(i int) Certified {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.certified[i]
}

// Check recovers the subject and compares each heap's recovered state with
// the state certified at that heap's failed epoch minus one — the last
// checkpoint that completed before the crash. A missing certificate is the
// empty state. The recovered heaps are returned with any divergence; they
// are nil only when recovery itself failed.
func (c *Checker) Check() ([]Recovered, error) {
	recs, err := c.s.Recover()
	if err != nil {
		return nil, fmt.Errorf("recovery failed: %w", err)
	}
	for i, rv := range recs {
		if d := diff(c.Certified(i)[rv.FailedEpoch-1], rv.State); d != "" {
			return recs, fmt.Errorf("heap %d recovered to epoch boundary C%d but state diverges: %s",
				i, rv.FailedEpoch-1, d)
		}
	}
	return recs, nil
}

// diff returns "" when got matches want (nil want == empty state),
// otherwise a short description of the first few divergent keys.
func diff(want, got State) string {
	var diffs []string
	for k, wv := range want {
		if gv, ok := got[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("missing %q=%q", k, wv))
		} else if gv != wv {
			diffs = append(diffs, fmt.Sprintf("%q=%q want %q", k, gv, wv))
		}
	}
	for k, gv := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("extra %q=%q", k, gv))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	sort.Strings(diffs)
	if len(diffs) > 4 {
		diffs = append(diffs[:4], fmt.Sprintf("(+%d more)", len(diffs)-4))
	}
	return strings.Join(diffs, ", ")
}
