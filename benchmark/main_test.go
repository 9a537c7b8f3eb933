package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// BENCHMARK.json is the driver's copy of the tables in main.go and
// workload.go; this keeps the two from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var f struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if strings.Join(f.Command, " ") != "bash benchmark/run.sh" || strings.Join(f.Paths, " ") != "benchmark" {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v, want %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
			if bounded && (d.bound <= 0 || d.bound > endToEndMetrics[0].bound) {
				t.Errorf("%s: bound %v must be positive and at most setup_s's", d.name, d.bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEndMetrics, true)
	check("per_layer", f.PerLayer, perLayerMetrics, false)
	if endToEndMetrics[0].name != "setup_s" {
		t.Error("setup_s must lead the end-to-end table")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestCompareAppliesBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, thr, cpu, failed float64) string {
		values := map[string]float64{"failed_frac": failed}
		for _, d := range endToEndMetrics {
			values[d.name] = 100
		}
		values["throughput_ops_s"], values["cpu_us_per_op"] = thr, cpu
		f := resultFile{Runs: []outcome{{Workload: "point-text", Values: values}}}
		b, _ := json.Marshal(f)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 100, 0)
	if err := compare(base, write("same.json", 100, 100, 0)); err != nil {
		t.Errorf("identical files: %v", err)
	}
	if err := compare(base, write("better.json", 150, 50, 0)); err != nil {
		t.Errorf("an improvement is no breach: %v", err)
	}
	if err := compare(base, write("slow.json", 70, 100, 0)); err == nil {
		t.Error("throughput down three tenths passed")
	}
	if err := compare(base, write("costly.json", 100, 200, 0)); err == nil {
		t.Error("CPU per op doubled passed")
	}
	if err := compare(base, write("failing.json", 100, 100, 1e-6)); err == nil {
		t.Error("a rise in failed_frac passed")
	}
}

// The reference server is this binary re-executed; under go test that is the
// test binary, so it needs the same entry point main has.
func TestMain(m *testing.M) {
	referenceChild()
	os.Exit(m.Run())
}
