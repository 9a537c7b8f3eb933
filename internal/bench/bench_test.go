package bench

import (
	"strings"
	"testing"
	"time"

	"github.com/respct/respct/internal/core"
)

func tinyScale() Scale {
	return Scale{
		Buckets:      512,
		KeySpace:     1024,
		Prefill:      512,
		ThreadCounts: []int{1, 2},
		Duration:     30 * time.Millisecond,
		Interval:     5 * time.Millisecond,
		QueuePrefill: 100,
	}
}

func TestRunMapCountsOps(t *testing.T) {
	s := tinyScale()
	sys := MapSystem0("Transient<DRAM>")
	w := MapWorkload{Name: "balanced", UpdateFrac: 0.5, KeySpace: s.KeySpace, Prefill: s.Prefill}
	r := runMapSystem(sys, w, 2, s)
	if r.Ops == 0 {
		t.Fatal("no operations recorded")
	}
	if r.Mops() <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestEverySystemRunsBriefly(t *testing.T) {
	s := tinyScale()
	w := MapWorkload{Name: "balanced", UpdateFrac: 0.5, KeySpace: s.KeySpace, Prefill: s.Prefill}
	for _, sys := range MapSystems() {
		r := runMapSystem(sys, w, 2, s)
		if r.Ops == 0 {
			t.Errorf("map system %s recorded no ops", sys.Name)
		}
	}
	for _, sys := range QueueSystems() {
		p := s.params(2)
		q, closeFn := sys.New(p)
		PrefillQueue(q, s.QueuePrefill)
		r := RunQueue(sys.Name, q, 2, s.Duration, 1)
		closeFn()
		q.Close()
		if r.Ops == 0 {
			t.Errorf("queue system %s recorded no ops", sys.Name)
		}
	}
}

func TestRespctVariantsRun(t *testing.T) {
	s := tinyScale()
	w := MapWorkload{Name: "write-intensive", UpdateFrac: 0.9, KeySpace: s.KeySpace, Prefill: s.Prefill}
	for _, sys := range RespctMapVariants() {
		r := runMapSystem(sys, w, 2, s)
		if r.Ops == 0 {
			t.Errorf("%s recorded no ops", sys.Name)
		}
	}
}

func TestFig10Report(t *testing.T) {
	out := Fig10(tinyScale(), nil)
	for _, want := range []string{"Transient<DRAM>", "Transient<NVMM>", "ResPCT-InCLL", "ResPCT-noFlush", "Figure 10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig10 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig11Report(t *testing.T) {
	s := tinyScale()
	out := Fig11(s, nil)
	if !strings.Contains(out, "period") || !strings.Contains(out, "64ms") {
		t.Fatalf("Fig11 output malformed:\n%s", out)
	}
}

// TestFig11PrefillIsDurable: a Fig. 11 row's checkpointer starts on a map
// whose prefill is already durable, so no row's first checkpoint writes back
// the prefill inside the timed window.
func TestFig11PrefillIsDurable(t *testing.T) {
	_, rt := respctMap(tinyScale().params(2), core.Config{})
	if info := rt.CheckpointIdle(); info.LinesWrote != 0 {
		t.Fatalf("checkpoint at checkpointer start wrote %d lines, want 0", info.LinesWrote)
	}
}

func TestFig12Report(t *testing.T) {
	out := Fig12(tinyScale(), []int{256, 512}, nil)
	if !strings.Contains(out, "buckets") || !strings.Contains(out, "512") {
		t.Fatalf("Fig12 output malformed:\n%s", out)
	}
}

func TestTableRendering(t *testing.T) {
	results := []Result{
		{System: "A", Threads: 1, Ops: 1000, Duration: time.Second},
		{System: "A", Threads: 2, Ops: 3000, Duration: time.Second},
		{System: "B", Threads: 1, Ops: 500, Duration: time.Second},
	}
	out := Table("T", results, []int{1, 2})
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Fatalf("table missing systems:\n%s", out)
	}
	if !strings.Contains(out, "0.003") {
		t.Fatalf("table missing throughput:\n%s", out)
	}
	// B has no 2-thread result: a dash.
	if !strings.Contains(out, "-") {
		t.Fatalf("missing placeholder:\n%s", out)
	}
}

func TestNormalizedTable(t *testing.T) {
	results := []Result{
		{System: "base", Ops: 1000, Duration: time.Second},
		{System: "half", Ops: 500, Duration: time.Second},
	}
	out := NormalizedTable("N", "base", results)
	if !strings.Contains(out, "0.500x") {
		t.Fatalf("normalization wrong:\n%s", out)
	}
}

func TestPrefillMapInsertsExactCount(t *testing.T) {
	s := tinyScale()
	sys := MapSystem0("Transient<DRAM>")
	m, closeFn := sys.New(s.params(1))
	defer closeFn()
	w := MapWorkload{UpdateFrac: 0, KeySpace: 4096, Prefill: 1000}
	PrefillMap(m, w, 42)
	// Count via Get over the key space.
	count := 0
	for k := uint64(1); k <= w.KeySpace; k++ {
		if _, ok := m.Get(0, k); ok {
			count++
		}
	}
	if count != w.Prefill {
		t.Fatalf("prefill inserted %d keys, want %d", count, w.Prefill)
	}
}
