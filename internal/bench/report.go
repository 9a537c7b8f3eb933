package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// Report is the JSON artifact respct-bench -json writes next to a figure's
// text table (BENCH_<name>.json): the figure's rows plus what it ran on, so
// a checked-in report says which code, GOMAXPROCS and sizes produced it.
type Report struct {
	Benchmark  string `json:"benchmark"`
	Scale      string `json:"scale"`  // "quick" or "paper"
	Commit     string `json:"commit"` // git describe --always --dirty of the tree that ran
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Config     any    `json:"config"` // the sizes the rows were measured at
	Rows       any    `json:"rows"`
}

// NewReport fills the environment fields so callers only supply the figure
// identity and its rows. The config stamped is the part of c the rows were
// measured at: the map sizes for Fig. 8/9's results, the KV sizes otherwise.
func NewReport(benchmark string, c Config, rows any) Report {
	var cfg any = c.KV
	if _, ok := rows.([]Result); ok {
		cfg = c.Map
	}
	return Report{
		Benchmark:  benchmark,
		Scale:      c.Scale,
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config:     cfg,
		Rows:       rows,
	}
}

// commit names the source tree a report was measured on, so that a checked-in
// artifact says which code produced it; "unknown" outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// WriteReport writes the report as indented JSON (stable field order, so the
// checked-in artifacts diff cleanly between runs).
func WriteReport(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// GateTolerance is how much worse than its baseline a gated quantity may be.
const GateTolerance = 0.10

// Gate reduces a figure's rows to named quantities (one per row or row
// group, e.g. "sync/zipfian" or "depth 8") that a run must hold against a
// checked-in report.
type Gate struct {
	Unit         string // what every quantity measures, for messages
	HigherBetter bool
	reduce       func(rows any) map[string]float64
	parse        func(raw json.RawMessage) (map[string]float64, error)
}

// newGate builds the gate of a figure whose rows are a []R.
func newGate[R any](unit string, higherBetter bool, reduce func([]R) map[string]float64) *Gate {
	return &Gate{
		Unit:         unit,
		HigherBetter: higherBetter,
		reduce:       func(rows any) map[string]float64 { return reduce(rows.([]R)) },
		parse: func(raw json.RawMessage) (map[string]float64, error) {
			var rows []R
			if err := json.Unmarshal(raw, &rows); err != nil {
				return nil, err
			}
			return reduce(rows), nil
		},
	}
}

// Quantities reduces the rows a figure's Run returned.
func (g *Gate) Quantities(rows any) map[string]float64 { return g.reduce(rows) }

// Baseline is a checked-in report reduced to its figure's gate quantities,
// with the GOMAXPROCS it was recorded at.
type Baseline struct {
	Path       string
	GOMAXPROCS int
	Quantities map[string]float64
}

// LoadBaseline reads the report at path as f's baseline. A report of another
// figure, or one without a gomaxprocs stamp, is refused: a gate compares like
// with like, so the run must use the baseline's GOMAXPROCS.
func (f Figure) LoadBaseline(path string) (Baseline, error) {
	if f.Gate == nil {
		return Baseline{}, fmt.Errorf("%s has no gate", f.Name)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, err
	}
	var rep struct {
		Benchmark  string          `json:"benchmark"`
		GOMAXPROCS int             `json:"gomaxprocs"`
		Rows       json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return Baseline{}, fmt.Errorf("parse %s: %w", path, err)
	}
	if rep.Benchmark != f.Name {
		return Baseline{}, fmt.Errorf("%s is a %q report, not %s", path, rep.Benchmark, f.Name)
	}
	if rep.GOMAXPROCS < 1 {
		return Baseline{}, fmt.Errorf("%s carries no gomaxprocs stamp", path)
	}
	q, err := f.Gate.parse(rep.Rows)
	if err != nil {
		return Baseline{}, fmt.Errorf("parse %s rows: %w", path, err)
	}
	return Baseline{Path: path, GOMAXPROCS: rep.GOMAXPROCS, Quantities: q}, nil
}

// Check holds a run's quantities to base: each one the baseline also carries
// may be worse by at most GateTolerance; one the baseline lacks is new and
// cannot regress. The error names the figure and every key that regressed.
func (f Figure) Check(base Baseline, cur map[string]float64) error {
	keys := make([]string, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bad []string
	for _, k := range keys {
		b, ok := base.Quantities[k]
		if !ok || b <= 0 {
			continue
		}
		worse := cur[k]/b - 1
		if f.Gate.HigherBetter {
			worse = -worse
		}
		if worse > GateTolerance {
			bad = append(bad, fmt.Sprintf("%s: %.2f %s vs baseline %.2f (%+.1f%%)",
				k, cur[k], f.Gate.Unit, b, 100*(cur[k]/b-1)))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s regression beyond %.0f%% of %s:\n  %s",
			f.Name, 100*GateTolerance, base.Path, strings.Join(bad, "\n  "))
	}
	return nil
}
