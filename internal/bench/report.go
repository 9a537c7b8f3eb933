package bench

import (
	"encoding/json"
	"io"
	"os/exec"
	"runtime"
	"strings"
)

// Report is the JSON artifact respct-bench writes next to a sweep's text
// table (BENCH_figpause.json, BENCH_figshards.json). Rows is the sweep's
// result slice — []PauseResult or []ShardResult — each row carrying its own
// closing telemetry snapshot when the instrumented variant produced it, so
// the checked-in numbers can be re-derived from the raw counters.
type Report struct {
	Benchmark  string  `json:"benchmark"`
	Scale      string  `json:"scale"`  // "quick" or "paper"
	Commit     string  `json:"commit"` // git describe --always --dirty of the tree that ran
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Config     KVScale `json:"config"`
	Rows       any     `json:"rows"`
}

// NewReport fills the environment fields so callers only supply the sweep
// identity and its rows.
func NewReport(benchmark, scale string, cfg KVScale, rows any) Report {
	return Report{
		Benchmark:  benchmark,
		Scale:      scale,
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
