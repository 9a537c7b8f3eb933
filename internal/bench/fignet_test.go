package bench

import (
	"strings"
	"testing"
	"time"
)

func tinyScanScale() KVScale {
	return KVScale{
		Records: 512, Operations: 2_000, ValueSize: 32,
		Clients: 2, Workers: 2, Buckets: 1 << 8,
		Interval: 8 * time.Millisecond, HeapBytes: 64 << 20,
	}
}

// TestFigScanRows smoke-tests the figscan entry of the figure table, the
// YCSB-E cell matrix: both protocols at both depths actually serve scans
// (errors inside a cell panic the run), and every row records positive
// throughput.
func TestFigScanRows(t *testing.T) {
	figs, err := Select("figscan")
	if err != nil {
		t.Fatal(err)
	}
	out, res := figs[0].Run(Config{KV: tinyScanScale()}, nil)
	rows := res.([]NetRow)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (text/binary × depths 1, 8):\n%s", len(rows), out)
	}
	for _, r := range rows {
		if r.Protocol != "text" && r.Protocol != "binary" {
			t.Fatalf("unexpected protocol %q", r.Protocol)
		}
		if r.Kops <= 0 || r.OpenRateKops <= 0 {
			t.Errorf("%s depth %d: non-positive throughput (%.2f kops, %.2f open)",
				r.Protocol, r.Depth, r.Kops, r.OpenRateKops)
		}
		if r.P50 <= 0 || r.Max < r.P99 {
			t.Errorf("%s depth %d: implausible quantiles p50=%d p99=%d max=%d",
				r.Protocol, r.Depth, r.P50, r.P99, r.Max)
		}
	}
	if !strings.Contains(out, "binary/text capacity ratio") {
		t.Fatalf("table missing ratio lines:\n%s", out)
	}
}

// TestCompareScanBaseline holds figscan rows to hand-written baselines: the
// gated quantity is the depth-8 binary/text ratio, so a baseline within
// tolerance of it passes and one 25% above it trips the gate, naming the
// figure and the depth.
func TestCompareScanBaseline(t *testing.T) {
	rows := []NetRow{
		{Protocol: "text", Depth: 1, Kops: 100},
		{Protocol: "binary", Depth: 1, Kops: 150}, // ratio 1.5
		{Protocol: "text", Depth: 8, Kops: 200},
		{Protocol: "binary", Depth: 8, Kops: 400}, // ratio 2.0
	}
	fig, ok := gateBaseline(t, "figscan", []NetRow{
		{Protocol: "text", Depth: 1, Kops: 100}, {Protocol: "binary", Depth: 1, Kops: 155},
		{Protocol: "text", Depth: 8, Kops: 100}, {Protocol: "binary", Depth: 8, Kops: 210},
	})
	if err := fig.Check(ok, fig.Gate.Quantities(rows)); err != nil {
		t.Fatalf("within-tolerance compare failed: %v", err)
	}

	_, bad := gateBaseline(t, "figscan", []NetRow{
		{Protocol: "text", Depth: 8, Kops: 100}, {Protocol: "binary", Depth: 8, Kops: 270},
	})
	err := fig.Check(bad, fig.Gate.Quantities(rows))
	if err == nil {
		t.Fatal("ratio regression passed the 10% gate")
	}
	if !strings.Contains(err.Error(), "depth 8") || !strings.Contains(err.Error(), "figscan") {
		t.Fatalf("regression error does not name the depth: %v", err)
	}
}
