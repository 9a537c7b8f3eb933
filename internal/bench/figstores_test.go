package bench

import (
	"strings"
	"testing"
	"time"
)

func tinyStoreScale() KVScale {
	return KVScale{
		Records: 512, Operations: 4_000, ValueSize: 32,
		Clients: 1, Workers: 1, Buckets: 1 << 8,
		Interval: 4 * time.Millisecond, HeapBytes: 64 << 20,
	}
}

func TestFigStoresRows(t *testing.T) {
	out, results := FigStores(tinyStoreScale(), nil)
	if len(results) != 4 {
		t.Fatalf("got %d rows, want 4 (sync/async × zipfian/uniform):\n%s", len(results), out)
	}
	want := []struct{ mode, dist string }{
		{"sync", "zipfian"}, {"sync", "uniform"},
		{"async", "zipfian"}, {"async", "uniform"},
	}
	for i, r := range results {
		if r.Mode != want[i].mode || r.Dist != want[i].dist {
			t.Fatalf("row %d is %s/%s, want %s/%s", i, r.Mode, r.Dist, want[i].mode, want[i].dist)
		}
		if r.StoreNsOp <= 0 {
			t.Errorf("%s/%s: non-positive store ns/op %v", r.Mode, r.Dist, r.StoreNsOp)
		}
		if r.FlushUsCkpt <= 0 {
			t.Errorf("%s/%s: non-positive flush µs/ckpt %v", r.Mode, r.Dist, r.FlushUsCkpt)
		}
		if r.Checkpoints != storeFlushCkpts {
			t.Errorf("%s/%s: %d flush checkpoints, want %d", r.Mode, r.Dist, r.Checkpoints, storeFlushCkpts)
		}
		// The steady-state acceptance gate: the tracked-store loop must not
		// allocate. A zipfian miss here means the hot path grew a slow leak.
		if r.AllocsPerOp != 0 {
			t.Errorf("%s/%s: %v allocs/op on the tracked-store path, want 0", r.Mode, r.Dist, r.AllocsPerOp)
		}
	}
	if !strings.Contains(out, "zipfian") || !strings.Contains(out, "uniform") {
		t.Fatalf("table missing distribution rows:\n%s", out)
	}
}

// TestCompareStoreBaseline holds figstores rows to hand-written baselines:
// store ns/op within tolerance passes, one row 25% slower trips the gate and
// is named, and a row the baseline lacks is skipped.
func TestCompareStoreBaseline(t *testing.T) {
	rows := []StoreOpResult{
		{Mode: "sync", Dist: "zipfian", StoreNsOp: 1000},
		{Mode: "async", Dist: "uniform", StoreNsOp: 2000},
	}
	fig, ok := gateBaseline(t, "figstores", []StoreOpResult{
		{Mode: "sync", Dist: "zipfian", StoreNsOp: 950},
		{Mode: "async", Dist: "uniform", StoreNsOp: 1900},
	})
	if err := fig.Check(ok, fig.Gate.Quantities(rows)); err != nil {
		t.Fatalf("within-tolerance compare failed: %v", err)
	}

	_, bad := gateBaseline(t, "figstores", []StoreOpResult{
		{Mode: "sync", Dist: "zipfian", StoreNsOp: 800},
		{Mode: "async", Dist: "uniform", StoreNsOp: 1900},
	})
	err := fig.Check(bad, fig.Gate.Quantities(rows))
	if err == nil {
		t.Fatal("25% regression passed the 10% gate")
	}
	if !strings.Contains(err.Error(), "sync/zipfian") || strings.Contains(err.Error(), "async/uniform") {
		t.Fatalf("regression error does not name exactly the slow row: %v", err)
	}

	unknown := []StoreOpResult{{Mode: "sync", Dist: "new", StoreNsOp: 9e9}}
	if err := fig.Check(ok, fig.Gate.Quantities(unknown)); err != nil {
		t.Fatalf("unknown row should be skipped: %v", err)
	}
}
