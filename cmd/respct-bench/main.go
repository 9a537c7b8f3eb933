// Command respct-bench regenerates the paper's evaluation (§5): one
// sub-command per figure/table, as listed by bench.Figures.
//
// Usage:
//
//	respct-bench [flags] <fig8|fig9|fig10|fig11|fig12|fig13|fig14|figstores|fignet|figscan|rpstudy|table3|all>
//
// Flags:
//
//	-scale quick|paper   problem sizes (default quick)
//	-duration d          per-configuration measurement time of Figs. 8–11
//	-threads list        comma-separated thread counts of Figs. 8–11 (e.g. 1,4,16,64)
//	-interval d          checkpoint period (default 64ms at paper scale)
//	-json dir            also write each figure's rows as dir/BENCH_<name>.json
//	                     (fig8, fig9, figstores, fignet, figscan)
//	-baseline file       gate one gated figure (figstores: store ns/op per
//	                     row; fignet, figscan: binary/text throughput ratio
//	                     per depth) against a checked-in BENCH_<name>.json:
//	                     the run uses the baseline's GOMAXPROCS and exits 1
//	                     if a quantity is more than 10% worse on 3 attempts
//	-v                   progress logging to stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/respct/respct/internal/bench"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "problem scale: quick or paper")
	durFlag := flag.Duration("duration", 0, "measurement duration per configuration of Figs. 8-11 (0 = scale default)")
	threadsFlag := flag.String("threads", "", "comma-separated thread counts of Figs. 8-11 (empty = scale default)")
	intervalFlag := flag.Duration("interval", 0, "checkpoint period (0 = scale default)")
	verbose := flag.Bool("v", false, "log progress to stderr")
	jsonDir := flag.String("json", "", "directory to also write each figure's rows as BENCH_<name>.json")
	baseline := flag.String("baseline", "", "checked-in BENCH_<name>.json to gate a figstores, fignet or figscan run against (exit 1 on a >10% regression)")
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}

	cfg, err := bench.NewConfig(*scaleFlag)
	if err != nil {
		fail(2, err)
	}
	if *durFlag > 0 {
		cfg.Map.Duration = *durFlag
	}
	if *intervalFlag > 0 {
		cfg.Map.Interval, cfg.App.Interval, cfg.KV.Interval = *intervalFlag, *intervalFlag, *intervalFlag
	}
	if *threadsFlag != "" {
		var tcs []int
		for _, f := range strings.Split(*threadsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fail(2, fmt.Errorf("bad thread count %q", f))
			}
			tcs = append(tcs, n)
		}
		cfg.Map.ThreadCounts = tcs
	}
	figs, err := bench.Select(flag.Arg(0))
	if err != nil {
		fail(2, err)
	}

	var base bench.Baseline
	if *baseline != "" {
		if len(figs) != 1 {
			fail(2, fmt.Errorf("-baseline gates one figure, not %q", flag.Arg(0)))
		}
		if base, err = figs[0].LoadBaseline(*baseline); err != nil {
			fail(2, err)
		}
		// The baseline was recorded at this GOMAXPROCS; the gated
		// quantities move with it, so the run uses the same.
		runtime.GOMAXPROCS(base.GOMAXPROCS)
		fmt.Fprintf(os.Stderr, "%s: GOMAXPROCS=%d, as recorded in %s\n", figs[0].Name, base.GOMAXPROCS, *baseline)
	}

	var log func(string)
	if *verbose {
		log = func(msg string) { fmt.Fprintln(os.Stderr, time.Now().Format("15:04:05"), msg) }
	}
	for _, f := range figs {
		table, rows := f.Run(cfg, log)
		fmt.Print(table)
		if *jsonDir != "" && rows != nil {
			if err := writeReport(filepath.Join(*jsonDir, "BENCH_"+f.Name+".json"), bench.NewReport(f.Name, cfg, rows)); err != nil {
				fmt.Fprintln(os.Stderr, "json:", err)
			}
		}
		if *baseline != "" {
			// One noisy run must not fail CI: a genuine regression
			// reproduces on every attempt, a neighbour stealing the CPU
			// does not, so the gate reruns the figure before giving up.
			err := f.Check(base, f.Gate.Quantities(rows))
			for attempt := 2; err != nil && attempt <= 3; attempt++ {
				fmt.Fprintf(os.Stderr, "%s: retrying (attempt %d/3) after: %v\n", f.Name, attempt, err)
				_, rows = f.Run(cfg, log)
				err = f.Check(base, f.Gate.Quantities(rows))
			}
			if err != nil {
				fail(1, err)
			}
			fmt.Fprintf(os.Stderr, "%s: within %.0f%% of %s\n", f.Name, 100*bench.GateTolerance, *baseline)
		}
		fmt.Println()
	}
}

func writeReport(path string, rep bench.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteReport(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
