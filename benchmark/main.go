// Command benchmark is the repository's benchmark: it drives the real
// cmd/kvserver binary over loopback TCP through its whole life and prints
// every end-to-end metric by name and unit, or — traced — every per-layer
// metric. README.md in this directory defines the workloads, the metrics and
// how they are expected to interact.
//
//	go run ./benchmark -workload <name|all> [-seed N] [-seconds S] [-trace 0|1]
//	                   [-repeat N] [-smoke] [-out file.json]
//	go run ./benchmark compare a.json b.json
//
// It must be started from the repository root. The last line a single run
// prints on standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric. bound is the share of the baseline's median by
// which an end-to-end metric may worsen before compare calls it a regression;
// per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEndMetrics is what a client or operator of kvserver sees, as far as
// this host lets it carry a bound. BENCHMARK.json repeats the table
// (TestBenchmarkJSONMatchesTables). throughput_ops_s and cpu_us_per_op are
// scaled to the reference host speed (see run.endToEnd).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.24},
	{"cpu_us_per_op", "us", "lower", 0.24},
	{"rss_peak_mb", "MiB", "lower", 0.15},
	{"disk_amp", "ratio", "lower", 0.01},
}

// endToEndInfo is printed with them and kept in result files, but carries no
// bound and is not in BENCHMARK.json's end_to_end: on this host these vary by
// more between two runs of the same code than the widest bound allowed (the
// README has the measured spreads), so they are per-layer client diagnostics
// of the traced run instead. failed_frac is 0 on every good run; any rise
// fails the run itself, and it travels in the result line's attempted and
// failed.
var endToEndInfo = []metricDef{
	{"lat_p50_us", "us", "lower", 0},
	{"lat_p99_us", "us", "lower", 0},
	{"shutdown_s", "s", "lower", 0},
	{"restart_s", "s", "lower", 0},
	{"verify_s", "s", "lower", 0},
	{"host_speed", "ratio", "higher", 0},
}

// endToEndShown is everything an end-to-end run prints: bounded, then not.
func endToEndShown() []metricDef {
	return append(append([]metricDef(nil), endToEndMetrics...), endToEndInfo...)
}

// perLayerMetrics, by layer: the generator (client), then the repository's
// modules from the socket down. Sources: the -metrics server's series (S),
// the in-process ladder (L), the generator itself (C).
var perLayerMetrics = []metricDef{
	{"client.lat_p50_us", "us", "lower", 0},
	{"client.lat_p99_us", "us", "lower", 0},
	{"client.lat_p999_us", "us", "lower", 0},
	{"client.lat_max_us", "us", "lower", 0},
	{"client.stall_frac", "ratio", "lower", 0},
	{"client.get_p50_us", "us", "lower", 0},
	{"client.set_p50_us", "us", "lower", 0},
	{"client.scan_p50_us", "us", "lower", 0},
	{"client.open_p50_us", "us", "lower", 0},
	{"client.open_p99_us", "us", "lower", 0},
	{"client.open_late_p50_us", "us", "lower", 0},
	{"client.open_late_p99_us", "us", "lower", 0},
	{"client.open_backlog_peak", "count", "lower", 0},
	{"client.bytes_tx_per_op", "B", "lower", 0},
	{"client.bytes_rx_per_op", "B", "lower", 0},
	{"client.cpu_us_per_op", "us", "lower", 0},
	{"client.shutdown_s", "s", "lower", 0},
	{"client.restart_s", "s", "lower", 0},
	{"client.verify_s", "s", "lower", 0},
	{"telemetry.overhead_frac", "ratio", "lower", 0},
	{"kv.exec_mean_us", "us", "lower", 0},
	{"kv.exec_p99_le_us", "us", "lower", 0},
	{"kv.store_op_ns", "ns", "lower", 0},
	{"kv.apply_op_ns", "ns", "lower", 0},
	{"kv.apply_self_ns", "ns", "lower", 0},
	{"kv.server_op_ns", "ns", "lower", 0},
	{"kv.server_self_ns", "ns", "lower", 0},
	{"wire.bytes_per_op", "B", "lower", 0},
	{"wire.ops_per_frame", "count", "higher", 0},
	{"wire.codec_op_ns", "ns", "lower", 0},
	{"shard.skew", "ratio", "lower", 0},
	{"shard.op_ns", "ns", "lower", 0},
	{"shard.self_ns", "ns", "lower", 0},
	{"structures.map_get_ns", "ns", "lower", 0},
	{"structures.map_put_ns", "ns", "lower", 0},
	{"structures.skip_get_ns", "ns", "lower", 0},
	{"structures.skip_put_ns", "ns", "lower", 0},
	{"structures.skip_scan_entry_ns", "ns", "lower", 0},
	{"core.store_tracked_ns", "ns", "lower", 0},
	{"core.incll_update_ns", "ns", "lower", 0},
	{"core.alloc_free_ns", "ns", "lower", 0},
	{"core.rp_ns", "ns", "lower", 0},
	{"core.prevent_allow_ns", "ns", "lower", 0},
	{"core.ckpt_per_s", "1/s", "higher", 0},
	{"core.ckpt_period_ms", "ms", "lower", 0},
	{"core.pause_mean_us", "us", "lower", 0},
	{"core.pause_p99_le_us", "us", "lower", 0},
	{"core.pause_share", "ratio", "lower", 0},
	{"core.gate_mean_us", "us", "lower", 0},
	{"core.lines_per_ckpt", "count", "lower", 0},
	{"core.lines_per_write", "count", "lower", 0},
	{"core.tracked_per_write", "count", "lower", 0},
	{"core.wc_keep_ratio", "ratio", "higher", 0},
	{"core.drain_mean_us", "us", "lower", 0},
	{"core.collision_flushes_per_kwrite", "count", "lower", 0},
	{"core.collisions_logged_per_kwrite", "count", "lower", 0},
	{"core.collision_log_peak", "count", "lower", 0},
	{"core.allocs_per_write", "count", "lower", 0},
	{"core.magazine_recycle_ratio", "ratio", "higher", 0},
	{"core.heap_bytes_per_user_byte", "ratio", "lower", 0},
	{"core.ckpt_gate_us", "us", "lower", 0},
	{"core.ckpt_flush_us", "us", "lower", 0},
	{"core.ckpt_flush_ns_per_line", "ns", "lower", 0},
	{"core.recover_ms", "ms", "lower", 0},
	{"core.recover_cells_per_ms", "1/ms", "higher", 0},
	{"core.recover_rollbacks", "count", "lower", 0},
	{"pmem.load_ns", "ns", "lower", 0},
	{"pmem.store_ns", "ns", "lower", 0},
	{"pmem.flush_line_ns", "ns", "lower", 0},
	{"pmem.flushes_per_write", "count", "lower", 0},
	{"pmem.fences_per_ckpt", "count", "lower", 0},
	{"pmem.evictions", "count", "lower", 0},
	{"frame.full_ms", "ms", "lower", 0},
	{"frame.full_bytes_per_user_byte", "ratio", "lower", 0},
	{"frame.delta_ms", "ms", "lower", 0},
	{"frame.delta_bytes_per_dirty_line", "B", "lower", 0},
	{"frame.restore_ms", "ms", "lower", 0},
	{"ladder.reconcile_ratio", "ratio", "higher", 0},
}

// outcome is one finished run, as the result file keeps it and as the last
// line of standard output reports it.
type outcome struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Samples   int                `json:"latency_samples"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Values    map[string]float64 `json:"values"`
}

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Meta  map[string]any `json:"meta"`
	Runs  []outcome      `json:"runs"`
	Claim any            `json:"claim"` // always null: defining the benchmark claims no gain
}

type options struct {
	root    string // repository root; the benchmark is started from it
	sz      sizing
	seed    int64
	seconds time.Duration
	trace   bool
}

// runOne performs one run and prints its table and result line.
func runOne(o options, w *workload) (*outcome, error) {
	r, err := newRun(o.root, w, o.sz, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	defer r.close()
	// A signal must not leave servers or a half-GiB snapshot behind.
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer close(done)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			r.close()
			os.Exit(130)
		case <-done:
		}
	}()

	var m *measurement
	defs := endToEndMetrics
	if o.trace {
		m, err = r.traced()
		defs = perLayerMetrics
	} else {
		m, err = r.endToEnd()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	m.values["failed_frac"] = float64(r.failed) / float64(r.attempted)
	out := &outcome{Workload: w.name, Seed: o.seed, Trace: o.trace, Samples: m.samples,
		Attempted: r.attempted, Failed: r.failed, Values: m.values}

	fmt.Printf("%s  seed %d  %s\n", w.name, o.seed, map[bool]string{false: "end to end", true: "traced"}[o.trace])
	show := defs
	if !o.trace {
		show = endToEndShown()
	}
	for _, d := range show {
		note := ""
		if strings.HasPrefix(d.name, "lat_p") {
			note = fmt.Sprintf("  (%d samples)", m.samples)
		}
		fmt.Printf("  %-36s %14.4f %s%s\n", d.name, m.values[d.name], d.unit, note)
	}
	fmt.Printf("  %-36s %14.6f ratio  (%d failed of %d attempted)\n", "failed_frac",
		m.values["failed_frac"], r.failed, r.attempted)

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metric{}}
	for _, d := range defs {
		line.Metrics[d.name] = metric{m.values[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(b))
	if r.failed > 0 {
		return out, fmt.Errorf("%s: %d of %d operations failed", w.name, r.failed, r.attempted)
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of v as
// Python's statistics.quantiles(v, n=4) computes them.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		p := q * float64(len(s)+1)
		i := min(max(int(p), 1), len(s)-1)
		return s[i-1] + (p-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// printSpread is the -repeat report: per end-to-end metric the median, the
// quartiles, their distance over the median (the spread a bound must cover)
// and the full range over the median.
func printSpread(w *workload, runs []outcome) {
	fmt.Printf("%s  spread over %d runs\n  %-20s %12s %12s %12s %10s %10s\n", w.name, len(runs),
		"metric", "q1", "median", "q3", "iqr/med", "range/med")
	for _, d := range endToEndShown() {
		var v []float64
		for _, r := range runs {
			v = append(v, r.Values[d.name])
		}
		q1, q2, q3 := quartiles(v)
		sort.Float64s(v)
		fmt.Printf("  %-20s %12.4f %12.4f %12.4f %9.2f%% %9.2f%%\n", d.name, q1, q2, q3,
			100*(q3-q1)/q2, 100*(v[len(v)-1]-v[0])/q2)
	}
}

// compare applies the end-to-end bounds to two result files: for every
// workload both hold, b's median may be worse than a's by at most the bound.
func compare(pathA, pathB string) error {
	load := func(path string) (map[string][]outcome, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		by := map[string][]outcome{}
		for _, r := range f.Runs {
			if !r.Trace {
				by[r.Workload] = append(by[r.Workload], r)
			}
		}
		return by, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	med := func(runs []outcome, name string) float64 {
		var v []float64
		for _, r := range runs {
			v = append(v, r.Values[name])
		}
		return median(v)
	}
	breaches := 0
	for _, w := range workloads {
		if len(a[w.name]) == 0 || len(b[w.name]) == 0 {
			continue
		}
		fmt.Printf("%s  (%d vs %d runs)\n", w.name, len(a[w.name]), len(b[w.name]))
		for _, d := range endToEndMetrics {
			ma, mb := med(a[w.name], d.name), med(b[w.name], d.name)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("  %-20s %12.4f -> %12.4f %-6s %+7.2f%% worse (bound %.0f%%)  %s\n",
				d.name, ma, mb, d.unit, 100*worse, 100*d.bound, verdict)
		}
		fa, fb := med(a[w.name], "failed_frac"), med(b[w.name], "failed_frac")
		if fb > fa {
			fmt.Printf("  %-20s %12.6f -> %12.6f  BREACH (any rise fails)\n", "failed_frac", fa, fb)
			breaches++
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", breaches)
	}
	return nil
}

// meta records where and how a result file was measured.
func meta(o options, repeat int) map[string]any {
	run := func(name string, args ...string) string {
		out, err := exec.Command(name, args...).Output()
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(out))
	}
	return map[string]any{
		"commit": run("git", "-C", o.root, "rev-parse", "HEAD"), "go": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "kernel": run("uname", "-r"),
		"seed": o.seed, "repeat": repeat, "records": o.sz.records,
		"warmup_s": o.sz.warmup.Seconds(), "measured_s": o.seconds.Seconds(), "open_loop_s": o.sz.openLoop.Seconds(),
	}
}

// referenceChild turns the process into the reference server when it was
// started as `<binary> -reference <records>` (see reference.go), and returns
// otherwise.
func referenceChild() {
	if len(os.Args) != 3 || os.Args[1] != "-reference" {
		return
	}
	records, err := strconv.Atoi(os.Args[2])
	if err == nil {
		err = serveReference(records)
	}
	fmt.Fprintln(os.Stderr, "benchmark: reference server:", err)
	os.Exit(1)
}

func main() {
	referenceChild()
	runtime.GOMAXPROCS(clientConns) // one generator goroutine per connection, one connection per CPU
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: benchmark compare a.json b.json")
			os.Exit(2)
		}
		if err := compare(os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 42, "generator seed: the same seed yields the same op stream")
	seconds := flag.Float64("seconds", 10, "length of the measured closed-loop phase")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end run")
	repeat := flag.Int("repeat", 1, "run each workload this many times and report the spread")
	smoke := flag.Bool("smoke", false, "tiny sizing and 1 s phases: checks the plumbing, measures nothing")
	outPath := flag.String("out", "", "also write the results, with host and commit, to this JSON file")
	flag.Parse()

	o := options{root: ".", sz: fullSizing, seed: *seed, trace: *trace != 0,
		seconds: time.Duration(*seconds * float64(time.Second))}
	if *smoke {
		o.sz, o.seconds = smokeSizing, time.Second
	}
	selected := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{*w}
	}

	file := resultFile{Meta: meta(o, *repeat)}
	var failure error
	for i := range selected {
		w := &selected[i]
		var runs []outcome
		for n := 0; n < *repeat; n++ {
			out, err := runOne(o, w)
			if out != nil {
				runs = append(runs, *out)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				failure = err
				break
			}
		}
		if *repeat > 1 && !o.trace && len(runs) > 1 {
			printSpread(w, runs)
		}
		file.Runs = append(file.Runs, runs...)
	}
	if *outPath != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if failure != nil {
		os.Exit(1)
	}
}
