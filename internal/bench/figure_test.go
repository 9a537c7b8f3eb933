package bench

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigures checks the figure table respct-bench drives: names are unique,
// "all" selects every figure in table order, and every gate holds its
// checked-in baseline (BENCH_<name>.json at the repository root) to itself,
// trips on any one quantity degraded 25%, and refuses what it cannot compare.
func TestFigures(t *testing.T) {
	figs := Figures()
	seen := map[string]bool{}
	for _, f := range figs {
		if seen[f.Name] {
			t.Errorf("figure %q listed twice", f.Name)
		}
		seen[f.Name] = true
	}
	all, err := Select("all")
	if err != nil || len(all) != len(figs) {
		t.Fatalf("Select(all) = %d figures, %v; want %d", len(all), err, len(figs))
	}
	for i := range figs {
		if all[i].Name != figs[i].Name {
			t.Errorf("all runs %q at position %d, table has %q", all[i].Name, i, figs[i].Name)
		}
	}
	if _, err := Select("figshards"); err == nil {
		t.Error("Select accepted a figure the table does not list")
	}

	gated := 0
	for _, f := range figs {
		if f.Gate == nil {
			continue
		}
		gated++
		t.Run(f.Name, func(t *testing.T) {
			base, err := f.LoadBaseline(filepath.Join("..", "..", "BENCH_"+f.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if base.GOMAXPROCS < 1 || len(base.Quantities) == 0 {
				t.Fatalf("baseline stamped GOMAXPROCS %d with %d quantities", base.GOMAXPROCS, len(base.Quantities))
			}
			if err := f.Check(base, base.Quantities); err != nil {
				t.Fatalf("baseline fails its own gate: %v", err)
			}
			for key, v := range base.Quantities {
				worse := maps.Clone(base.Quantities)
				worse[key] = v * 1.25
				if f.Gate.HigherBetter {
					worse[key] = v * 0.75
				}
				err := f.Check(base, worse)
				if err == nil || !strings.Contains(err.Error(), f.Name) || !strings.Contains(err.Error(), key) {
					t.Errorf("%s degraded 25%%: gate error %v does not name %s and %s", key, err, f.Name, key)
				}
			}
			// A quantity the baseline lacks is a new row: it cannot regress.
			if err := f.Check(base, map[string]float64{"unknown row": 9e9}); err != nil {
				t.Errorf("unknown row not skipped: %v", err)
			}
		})
	}
	if gated != 3 {
		t.Errorf("%d gated figures, want 3 (figstores, fignet, figscan)", gated)
	}

	// Baselines the gate must refuse rather than compare.
	stores, _ := Select("figstores")
	dir := t.TempDir()
	unstamped := filepath.Join(dir, "unstamped.json")
	data, _ := json.Marshal(map[string]any{"benchmark": "figstores", "rows": []StoreOpResult{{Mode: "sync", Dist: "zipfian", StoreNsOp: 13}}})
	if err := os.WriteFile(unstamped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, path, want string
	}{
		{"missing file", filepath.Join(dir, "absent.json"), "absent.json"},
		{"no gomaxprocs stamp", unstamped, "gomaxprocs"},
		{"another figure's report", filepath.Join("..", "..", "BENCH_fignet.json"), "fignet"},
	} {
		if _, err := stores[0].LoadBaseline(c.path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: LoadBaseline error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// gateBaseline writes rows as a stamped report of the named figure and loads
// it back as that figure's baseline.
func gateBaseline(t *testing.T, name string, rows any) (Figure, Baseline) {
	t.Helper()
	figs, err := Select(name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(NewReport(name, Config{Scale: "quick"}, rows))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_"+name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := figs[0].LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	return figs[0], base
}
