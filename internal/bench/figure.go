package bench

import (
	"fmt"

	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/ycsb"
)

// Config sizes every figure: the map and queue micro-benchmarks (Figs.
// 8–12), the compute applications (Fig. 13, §5.3) and the KV server figures
// (Fig. 14, figstores, fignet, figscan).
type Config struct {
	Scale string // "quick" or "paper"
	Map   Scale
	App   AppScale
	KV    KVScale
}

// NewConfig returns the named scale: "quick" (CI-sized) or "paper" (§5.1).
func NewConfig(scale string) (Config, error) {
	switch scale {
	case "quick":
		return Config{scale, QuickScale(), QuickAppScale(), QuickKVScale()}, nil
	case "paper":
		return Config{scale, PaperScale(), PaperAppScale(), PaperKVScale()}, nil
	}
	return Config{}, fmt.Errorf("unknown scale %q", scale)
}

// Figure is one experiment of the evaluation, run by name.
type Figure struct {
	Name string
	// Run measures the figure and returns its text table, plus the rows
	// behind it for the figures that have a JSON report (nil otherwise).
	Run func(c Config, log func(string)) (table string, rows any)
	// Gate, when non-nil, holds a run's rows to a checked-in report.
	Gate *Gate
}

// Figures lists every experiment, in the order "all" runs them.
func Figures() []Figure {
	return []Figure{
		{Name: "fig8", Run: func(c Config, log func(string)) (string, any) { return Fig8(c.Map, nil, log) }},
		{Name: "fig9", Run: func(c Config, log func(string)) (string, any) { return Fig9(c.Map, nil, log) }},
		{Name: "fig10", Run: func(c Config, log func(string)) (string, any) { return Fig10(c.Map, log), nil }},
		{Name: "fig11", Run: func(c Config, log func(string)) (string, any) { return Fig11(c.Map, log), nil }},
		{Name: "fig12", Run: func(c Config, log func(string)) (string, any) { return Fig12(c.Map, nil, log), nil }},
		{Name: "fig13", Run: func(c Config, log func(string)) (string, any) { return Fig13(c.App, log), nil }},
		{Name: "fig14", Run: func(c Config, log func(string)) (string, any) { return Fig14(c.KV, log), nil }},
		{
			Name: "figstores",
			Run:  func(c Config, log func(string)) (string, any) { return FigStores(c.KV, log) },
			Gate: newGate("store ns/op", false, storeQuantities),
		},
		{
			// Text vs binary wire protocol on the plain store, 50% reads.
			Name: "fignet",
			Run: func(c Config, log func(string)) (string, any) {
				s := c.KV
				w := ycsb.Workload{
					Name: "fignet", Records: s.Records, Operations: s.Operations,
					ReadProp: 0.5, ValueSize: s.ValueSize, Zipfian: true,
					Clients: s.Clients, Seed: 42,
				}
				return FigNet(s, kv.StoreOptions{Buckets: s.Buckets}, w, []int{1, 8, 64},
					fmt.Sprintf("figNet — wire protocol comparison, ResPCT store, %d keys, %d-byte values, %d clients, %d workers",
						s.Records, s.ValueSize, s.Clients, s.Workers), log)
			},
			Gate: newGate("binary/text", true, ratioQuantities),
		},
		{
			// The ordered-scan surface (docs/COMMANDS.md) under YCSB-E: 95%
			// short range scans, 5% writes, on the structures-mode store.
			// Scans carry multi-entry replies, so deep pipelines buffer large
			// responses; depth 8 is already firmly in the batched regime.
			Name: "figscan",
			Run: func(c Config, log func(string)) (string, any) {
				s := c.KV
				w := ycsb.WorkloadE(s.Records, s.Operations, s.ValueSize, s.Clients)
				return FigNet(s, kv.StoreOptions{Buckets: s.Buckets, Structures: true}, w, []int{1, 8},
					fmt.Sprintf("figScan — YCSB-E ordered scans, structures-mode ResPCT store, %d keys, %d-byte values, max scan %d, %d clients, %d workers",
						s.Records, s.ValueSize, w.MaxScanLen, s.Clients, s.Workers), log)
			},
			Gate: newGate("binary/text", true, ratioQuantities),
		},
		{Name: "rpstudy", Run: func(c Config, log func(string)) (string, any) { return RPPlacementStudy(c.App, log), nil }},
		{Name: "table3", Run: func(Config, func(string)) (string, any) { return Table3(), nil }},
	}
}

// Select returns the figures a respct-bench argument names: every figure
// for "all", else the one figure of that name.
func Select(name string) ([]Figure, error) {
	figs := Figures()
	if name == "all" {
		return figs, nil
	}
	for _, f := range figs {
		if f.Name == name {
			return []Figure{f}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}
