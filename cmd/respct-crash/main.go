// Command respct-crash soaks the ResPCT runtime against simulated crashes:
// concurrent workloads run over a chaos-mode heap (random cache-line
// evictions), the machine dies at a random moment, recovery runs, and the
// recovered state is verified against the logical snapshot certified by the
// last completed checkpoint — the empirical counterpart of the paper's §4
// proof of buffered durable linearizability.
//
// Each (structure, seed) soak runs in its own subprocess, so a runtime bug
// that panics or wedges one soak cannot take the rest of the suite (or its
// verdict) with it. The supervisor distinguishes how children die:
//
//	exit 0  every soak recovered to its certified checkpoint
//	exit 1  at least one soak reported a durability failure
//	exit 2  usage or input error
//	exit 3  a child was killed by an unexpected signal (crash in the harness
//	        itself — SIGSEGV, OOM SIGKILL, ... — NOT a durability verdict)
//	exit 4  a child exceeded -child-timeout and was killed
//	exit 5  -sanitize found persistency-protocol violations (the runtime
//	        sanitizer, internal/psan, tripped on the reference run)
//
// When several classes occur, signal (3) wins over timeout (4) over
// sanitizer findings (5) over failure (1): a harness crash makes the
// durability verdict meaningless, so it must not be summarised as an
// ordinary red run; sanitizer findings name the violating store, which
// subsumes the image-diff failure they would otherwise cause.
//
// Usage:
//
//	respct-crash [-seeds n] [-threads n] [-interval d] [-evict n] [-structure map|queue|both]
//	respct-crash -war                             # §3.3.2 WAR-without-logging hazard demo (deterministic)
//	respct-crash -explore map-sync -budget 200    # deterministic crash-point exploration
//	respct-crash -explore map-sync -sanitize      # + runtime persistency sanitizer
//	respct-crash -replay repro.json               # replay a minimized explorer repro
//
// -explore enumerates every image-changing write-back of a deterministic
// workload (see internal/crashexplore), crashes at each one, and checks the
// recovery contract; -repro-dir receives a minimized replayable schedule
// for the earliest failure. -replay re-runs such a file and exits 1 if the
// violation still reproduces.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"github.com/respct/respct/internal/crash"
	"github.com/respct/respct/internal/crashexplore"
)

// Exit codes, in verdict order. See the command doc for the precedence
// rule when several classes occur in one run.
const (
	exitOK          = 0
	exitSoakFailure = 1
	exitUsage       = 2
	exitSignal      = 3
	exitTimeout     = 4
	exitSanitizer   = 5
)

// exitClass is a child's classified fate, ordered by severity of what it
// says about the harness (not the workload).
type exitClass int

const (
	classOK exitClass = iota
	classFailure
	classTimeout
	classSignal
)

// exitCode maps a class to the process exit code contract above.
func (c exitClass) exitCode() int {
	switch c {
	case classOK:
		return exitOK
	case classFailure:
		return exitSoakFailure
	case classTimeout:
		return exitTimeout
	default:
		return exitSignal
	}
}

// classify turns a child's wait error into an exit class. timedOut is
// whether the supervisor's deadline killed it (the raw error then reports
// SIGKILL, which must not be confused with a spontaneous signal death).
func classify(err error, timedOut bool) (exitClass, string) {
	if timedOut {
		return classTimeout, "timed out"
	}
	if err == nil {
		return classOK, ""
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			return classSignal, "killed by " + ws.Signal().String()
		}
		return classFailure, fmt.Sprintf("exit status %d", ee.ExitCode())
	}
	// The child never ran (exec failure): the suite cannot render a
	// durability verdict, so treat it like a harness death.
	return classSignal, err.Error()
}

func main() {
	seeds := flag.Int("seeds", 16, "number of seeded crash runs per structure")
	threads := flag.Int("threads", 4, "worker threads")
	interval := flag.Duration("interval", 4*time.Millisecond, "checkpoint period")
	evict := flag.Int("evict", 64, "chaos evictor probe rate")
	structure := flag.String("structure", "both", "map, queue or both")
	war := flag.Bool("war", false, "run the deterministic WAR-violation demonstration instead (exit 1 if it is not observed)")
	childTimeout := flag.Duration("child-timeout", 2*time.Minute, "per-soak subprocess deadline")
	inProcess := flag.Bool("in-process", false, "run soaks in this process instead of subprocesses")

	subprocess := flag.Bool("subprocess", false, "internal: run exactly one soak and exit (set by the supervisor)")
	seed := flag.Int64("seed", 1, "internal: seed for -subprocess")

	explore := flag.String("explore", "", "explore crash points of the named crashexplore workload ('list' to list)")
	budget := flag.Int("budget", 0, "crash-point budget for -explore (0 = exhaustive)")
	sanitize := flag.Bool("sanitize", false, "attach the runtime persistency sanitizer to -explore reference runs")
	reproDir := flag.String("repro-dir", "", "directory for minimized repro files from -explore")
	replay := flag.String("replay", "", "replay a crashexplore repro file")
	flag.Parse()

	switch {
	case *war:
		os.Exit(runWAR())
	case *replay != "":
		os.Exit(runReplay(*replay))
	case *explore != "":
		os.Exit(runExplore(*explore, *budget, *reproDir, *sanitize))
	case *subprocess:
		os.Exit(runOneSoak(*structure, *seed, *threads, *interval, *evict))
	default:
		os.Exit(supervise(*structure, *seeds, *threads, *interval, *evict, *childTimeout, *inProcess))
	}
}

// runWAR runs the deterministic WAR-hazard demonstration. The violation
// must show every time: a run that misses it means the demonstration (or the
// checker) lost its teeth, which is a failure.
func runWAR() int {
	detected, err := crash.WARViolationDetected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return exitSoakFailure
	}
	if !detected {
		fmt.Println("WAR violation NOT observed: the counter updated with plain stores recovered")
		fmt.Println("to its checkpointed value, so the demonstration no longer shows the hazard")
		return exitSoakFailure
	}
	fmt.Println("WAR violation demonstrated: a counter updated with plain stores (no InCLL)")
	fmt.Println("recovered to a value that never existed at any checkpoint. Rule (ii) of")
	fmt.Println("paper §3.3.2 — log everything with a write-after-read dependency — is load-bearing.")
	return exitOK
}

// runOneSoak is the -subprocess body: exactly one (structure, seed) soak.
func runOneSoak(kind string, seed int64, threads int, interval time.Duration, evict int) int {
	cfg := crash.MapSoakConfig{
		Threads:   threads,
		Buckets:   1024,
		KeySpace:  4096,
		EvictRate: evict,
		Interval:  interval,
		HeapBytes: 256 << 20,
	}
	var rep *crash.SoakReport
	var err error
	switch kind {
	case "map":
		rep, err = crash.MapSoak(cfg).Run(seed)
	case "queue":
		rep, err = crash.QueueSoak(cfg).Run(seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown structure %q for -subprocess\n", kind)
		return exitUsage
	}
	if err != nil {
		fmt.Printf("%-5s seed %3d  FAIL: %v\n", kind, seed, err)
		return exitSoakFailure
	}
	fmt.Printf("%-5s seed %3d  OK: crashed epoch %d after %d checkpoints, recovered %d items == certified\n",
		kind, seed, rep.FailedEpoch, rep.Checkpoints, rep.RecoveredKeys)
	return exitOK
}

// supervise fans the (structure, seed) grid out to one subprocess per soak
// and folds the children's fates into the documented exit-code contract.
func supervise(structure string, seeds, threads int, interval time.Duration, evict int, childTimeout time.Duration, inProcess bool) int {
	var kinds []string
	switch structure {
	case "map", "queue":
		kinds = []string{structure}
	case "both":
		kinds = []string{"map", "queue"}
	default:
		fmt.Fprintf(os.Stderr, "unknown -structure %q (want map, queue or both)\n", structure)
		return exitUsage
	}

	self, err := os.Executable()
	if err != nil && !inProcess {
		fmt.Fprintln(os.Stderr, "cannot locate own binary, falling back to in-process soaks:", err)
		inProcess = true
	}

	worst := classOK
	note := func(c exitClass) {
		// classSignal > classTimeout > classFailure > classOK, which the
		// iota order already encodes.
		if c > worst {
			worst = c
		}
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, kind := range kinds {
			if inProcess {
				if runOneSoak(kind, seed, threads, interval, evict) != exitOK {
					note(classFailure)
				}
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
			cmd := exec.CommandContext(ctx, self,
				"-subprocess",
				"-structure", kind,
				"-seed", strconv.FormatInt(seed, 10),
				"-threads", strconv.Itoa(threads),
				"-interval", interval.String(),
				"-evict", strconv.Itoa(evict),
			)
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			err := cmd.Run()
			timedOut := ctx.Err() != nil
			cancel()
			if c, why := classify(err, timedOut); c != classOK {
				note(c)
				fmt.Printf("%-5s seed %3d  %s\n", kind, seed, why)
			}
		}
	}

	switch worst {
	case classOK:
		fmt.Println("\nall crash soaks recovered exactly to their certified checkpoints")
	case classFailure:
		fmt.Println("\nDURABILITY FAILURES — see soak output above")
	case classTimeout:
		fmt.Println("\nHARNESS TIMEOUT — at least one soak subprocess was killed at the deadline; no verdict")
	case classSignal:
		fmt.Println("\nHARNESS DEATH — at least one soak subprocess died on a signal; no verdict")
	}
	return worst.exitCode()
}

// runExplore drives internal/crashexplore over one named workload (or all
// of them) and prints the coverage report.
func runExplore(name string, budget int, reproDir string, sanitize bool) int {
	names := []string{name}
	if name == "all" {
		names = crashexplore.Names()
	} else if name == "list" {
		for _, n := range crashexplore.Names() {
			fmt.Println(n)
		}
		return exitOK
	}
	code := exitOK
	for _, n := range names {
		w, err := crashexplore.Lookup(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return exitUsage
		}
		rep, err := crashexplore.Explore(w, crashexplore.Options{Budget: budget, ReproDir: reproDir, Sanitize: sanitize})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return exitSoakFailure
		}
		if len(rep.SanFindings) > 0 {
			fmt.Printf("%-20s SANITIZER: %d persistency violations on the reference run\n",
				rep.Workload, len(rep.SanFindings))
			for _, f := range rep.SanFindings {
				fmt.Printf("  %s\n", f)
			}
			code = exitSanitizer
			continue
		}
		sampled := ""
		if rep.Sampled {
			sampled = fmt.Sprintf(" (sampled, %d skipped)", rep.Skipped)
		}
		sanitized := ""
		if rep.Sanitized {
			sanitized = ", sanitized clean"
		}
		fmt.Printf("%-20s %4d events, %4d ordering points, %4d explored%s, %d deduped, %d failures%s  [%s]\n",
			rep.Workload, rep.Events, rep.OrderingPoints, rep.Explored, sampled, rep.Deduped,
			len(rep.Failures), sanitized, rep.Elapsed.Round(time.Millisecond))
		for _, f := range rep.Failures {
			fmt.Printf("  crash point %d: %s\n", f.Seq, f.Err)
		}
		if rep.ReproPath != "" {
			fmt.Printf("  minimized repro written to %s\n", rep.ReproPath)
		}
		if len(rep.Failures) > 0 && code != exitSanitizer {
			code = exitSoakFailure
		}
	}
	return code
}

// runReplay re-executes a minimized repro file and reports whether the
// recorded durability violation still reproduces.
func runReplay(path string) int {
	r, err := crashexplore.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return exitUsage
	}
	res, err := crashexplore.Replay(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return exitUsage
	}
	if res.Divergence != "" {
		fmt.Printf("reproduced: workload %s, crash after event %d (failed epochs %v)\n  %s\n",
			r.Workload, r.CrashSeq, res.FailedEpochs, res.Divergence)
		return exitSoakFailure
	}
	fmt.Printf("did not reproduce: workload %s recovered cleanly at crash point %d (failed epochs %v)\n",
		r.Workload, r.CrashSeq, res.FailedEpochs)
	return exitOK
}
