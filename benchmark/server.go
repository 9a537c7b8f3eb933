package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes: the kvserver binary and
// one scratch directory per run. It is relative to the repository root, the
// directory the benchmark must be started from.
const buildDir = ".bench_build"

// buildServer compiles the real cmd/kvserver from the checkout at root. The
// go tool's own caching makes a rebuild of unchanged sources a no-op.
func buildServer(root string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(root, buildDir, "kvserver"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/kvserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/kvserver (the benchmark must be started from the repository root): %w\n%s", err, out)
	}
	return bin, nil
}

// tail keeps the last few KiB of a child's output, so a failed run can show
// what the server said without an unbounded log.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	const keep = 8 << 10
	t.buf = append(t.buf, p...)
	if len(t.buf) > keep {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-keep:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// server is one kvserver child process.
type server struct {
	cmd      *exec.Cmd
	snapshot string    // -snapshot path: names the data set the server holds
	started  time.Time // just before exec
	addr     string    // from the "listening on" line
	metrics  string    // from the "metrics on" line; empty without -metrics
	log      tail      // stdout + stderr
	exited   chan struct{}
}

var (
	listenRE  = regexp.MustCompile(`listening on (\S+)`)
	metricsRE = regexp.MustCompile(`metrics on http://([^/\s]+)/`)
)

// startServer execs bin with args and returns once the server printed its
// "listening on" line. On any failure the child is gone when it returns.
func startServer(bin string, args []string, timeout time.Duration) (*server, error) {
	s := &server{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	// If the benchmark itself is killed, the kernel takes the child along.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stderr = &s.log
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan struct{})
	go func() {
		defer close(s.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(&s.log, line)
			if m := metricsRE.FindStringSubmatch(line); m != nil {
				s.metrics = m[1]
			}
			if m := listenRE.FindStringSubmatch(line); m != nil && s.addr == "" {
				s.addr = m[1]
				close(ready)
			}
		}
		s.cmd.Wait() // the exit status is in cmd.ProcessState
	}()
	select {
	case <-ready:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("kvserver exited before listening (%v):\n%s", s.cmd.ProcessState, s.log.String())
	case <-time.After(timeout):
		s.kill()
		return nil, fmt.Errorf("kvserver not listening after %v:\n%s", timeout, s.log.String())
	}
}

// terminate sends SIGTERM (final checkpoint and snapshot) and waits for the
// process to exit, returning how long that took.
func (s *server) terminate(timeout time.Duration) (time.Duration, error) {
	t0 := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-s.exited:
	case <-time.After(timeout):
		s.kill()
		return 0, fmt.Errorf("kvserver still running %v after SIGTERM:\n%s", timeout, s.log.String())
	}
	d := time.Since(t0)
	if !s.cmd.ProcessState.Success() {
		return 0, fmt.Errorf("kvserver shutdown failed (%v):\n%s", s.cmd.ProcessState, s.log.String())
	}
	return d, nil
}

// freeze stops (SIGSTOP) or continues (SIGCONT) the process: a frozen server
// keeps its memory and its listener but takes no CPU.
func (s *server) freeze(stop bool) {
	sig := syscall.SIGCONT
	if stop {
		sig = syscall.SIGSTOP
	}
	s.cmd.Process.Signal(sig)
}

// kill stops the process without a snapshot and waits until it is gone.
// Safe on an already-exited server.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times: 100 on every
// Linux ABI.
const clockTick = 100

// cpuSeconds returns the process's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall, i.e. the 12th and 13th after it.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat times %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTick, nil
}

// rssPeakMiB returns the process's peak resident set (VmHWM).
func (s *server) rssPeakMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparseable VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
