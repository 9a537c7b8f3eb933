package bench

import (
	"strings"
	"testing"
	"time"
)

// The Fig8/Fig9 drivers are exercised with a micro scale so CI covers the
// full code path (construction, prefill, measurement, teardown for every
// system) without paying benchmark-grade durations.
func microScale() Scale {
	return Scale{
		Buckets:      256,
		KeySpace:     512,
		Prefill:      256,
		ThreadCounts: []int{1},
		Duration:     20 * time.Millisecond,
		Interval:     8 * time.Millisecond,
		QueuePrefill: 64,
	}
}

func TestFig8AllSystems(t *testing.T) {
	out, _ := Fig8(microScale(), nil, nil)
	for _, sys := range MapSystems() {
		if !strings.Contains(out, sys.Name) {
			t.Fatalf("Fig8 output missing %s:\n%s", sys.Name, out)
		}
	}
	if !strings.Contains(out, "read-intensive") || !strings.Contains(out, "write-intensive") {
		t.Fatalf("Fig8 output missing workloads:\n%s", out)
	}
}

func TestFig9AllSystems(t *testing.T) {
	out, _ := Fig9(microScale(), nil, nil)
	for _, sys := range QueueSystems() {
		if !strings.Contains(out, sys.Name) {
			t.Fatalf("Fig9 output missing %s:\n%s", sys.Name, out)
		}
	}
}

func TestFigLoggingCallback(t *testing.T) {
	var msgs []string
	s := microScale()
	Fig9(s, []QueueSystem{QueueSystem0("Transient<DRAM>")}, func(m string) { msgs = append(msgs, m) })
	if len(msgs) == 0 {
		t.Fatal("progress callback never invoked")
	}
	if !strings.Contains(msgs[0], "fig9") {
		t.Fatalf("unexpected progress message %q", msgs[0])
	}
}
