package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"github.com/respct/respct/internal/kv"
)

const (
	testHeap   = 512 << 20
	testShards = 2
)

// server is one kvserver process under test.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stdout *bufio.Reader
	stderr bytes.Buffer
	banner []string // stdout lines up to and including "listening"
}

var listening = regexp.MustCompile(`listening on (\S+)`)

// start runs the binary and waits for its listener.
func start(t *testing.T, bin, base string, shards int) *server {
	t.Helper()
	s := &server{cmd: exec.Command(bin, "-addr", "127.0.0.1:0", "-shards", strconv.Itoa(shards),
		"-workers", "2", "-buckets", "4096", "-heap", strconv.Itoa(testHeap), "-interval", "20ms", "-snapshot", base)}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.cmd.Process.Kill() })
	s.stdout = bufio.NewReader(out)
	for {
		line, err := s.stdout.ReadString('\n')
		if err != nil {
			s.cmd.Wait()
			t.Fatalf("kvserver exited before listening: %v\nstdout: %s\nstderr: %s", err, strings.Join(s.banner, ""), s.stderr.String())
		}
		s.banner = append(s.banner, line)
		if m := listening.FindStringSubmatch(line); m != nil {
			s.addr = m[1]
			return s
		}
	}
}

// stop sends SIGTERM and waits for the snapshot to be written.
func (s *server) stop(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(s.stdout) // to EOF: Wait closes the pipe
	if err := s.cmd.Wait(); err != nil {
		t.Fatalf("kvserver shutdown: %v\nstdout: %s\nstderr: %s", err, rest, s.stderr.String())
	}
	if !bytes.Contains(rest, []byte("frame set(s)")) {
		t.Fatalf("shutdown wrote no frame sets: %q", rest)
	}
}

// vmHWM reads the process's peak resident set in bytes; ok is false where
// there is no /proc to read it from.
func (s *server) vmHWM(t *testing.T) (hwm int64, ok bool) {
	t.Helper()
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, false
	}
	m := regexp.MustCompile(`VmHWM:\s+(\d+) kB`).FindSubmatch(status)
	if m == nil {
		t.Fatalf("no VmHWM in %s", status)
	}
	kb, _ := strconv.ParseInt(string(m[1]), 10, 64)
	return kb << 10, true
}

// refused runs the binary expecting exit status 1 before it listens, and
// returns what it said.
func refused(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("kvserver %v: err %v, want exit status 1\n%s", args, err, out)
	}
	return string(out)
}

// storeFiles lists what the state directory holds and, per shard frame
// store, the names inside it.
func storeFiles(t *testing.T, dir string) map[string][]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for _, e := range ents {
		got[e.Name()] = nil
		if e.IsDir() {
			inner, err := os.ReadDir(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range inner {
				got[e.Name()] = append(got[e.Name()], f.Name())
			}
		}
	}
	return got
}

func wantFiles(t *testing.T, dir, container string) {
	t.Helper()
	got := storeFiles(t, dir)
	want := map[string][]string{}
	for i := 0; i < testShards; i++ {
		want[fmt.Sprintf("kv-%d.fset", i)] = []string{"MANIFEST.json", container}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("state directory holds %v, want exactly %v", got, want)
	}
}

// TestProcessLifecycle drives the real binary across three processes: the
// shutdown snapshot is frame stores and nothing else, a restart serves what
// the last process acknowledged, every cycle rewrites the chain and collects
// the old container, and a restarted process never holds a copy of the image
// beside the heap it boots.
func TestProcessLifecycle(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "kvserver")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// A new flag is a new configuration every test and benchmark has to cover.
	usage, _ := exec.Command(bin, "-h").CombinedOutput()
	if n := len(regexp.MustCompile(`(?m)^  -`).FindAll(usage, -1)); n != 13 {
		t.Fatalf("kvserver -h lists %d flags, want 13:\n%s", n, usage)
	}

	dir := t.TempDir()
	base := filepath.Join(dir, "kv.img")
	key := func(i int) string { return fmt.Sprintf("key%04d", i) }
	const keys = 300

	set := func(s *server, from, to int, gen string) {
		t.Helper()
		c, err := kv.Dial(s.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := from; i < to; i++ {
			if err := c.Set(key(i), []byte(gen+key(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(s *server, from, to int, gen string) {
		t.Helper()
		c, err := kv.Dial(s.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := from; i < to; i++ {
			if v, ok, err := c.Get(key(i)); err != nil || !ok || string(v) != gen+key(i) {
				t.Fatalf("get %s = %q, %v, %v; want %q", key(i), v, ok, err, gen+key(i))
			}
		}
	}

	s := start(t, bin, base, testShards)
	set(s, 0, keys, "a")
	s.stop(t)
	wantFiles(t, dir, "full-000001.fimg")

	s = start(t, bin, base, testShards)
	if !strings.Contains(strings.Join(s.banner, ""), "recovered 2 shard(s)") {
		t.Fatalf("second process did not recover: %q", s.banner)
	}
	// Host-independent: the two arrays of the heap are 2.0x -heap once fully
	// touched; an image materialised beside them would make it 3x or more.
	if hwm, ok := s.vmHWM(t); !ok {
		t.Log("no /proc/<pid>/status here: peak resident set not checked")
	} else if t.Logf("restarted process VmHWM %d MiB", hwm>>20); float64(hwm) > 2.25*testHeap {
		t.Fatalf("restarted process peaked at %d MiB resident, over 2.25x the %d MiB heap", hwm>>20, testHeap>>20)
	}
	check(s, 0, keys, "a")
	set(s, 0, keys/2, "b")
	s.stop(t)
	wantFiles(t, dir, "full-000002.fimg") // chain rewritten, the old container collected

	s = start(t, bin, base, testShards)
	check(s, 0, keys/2, "b")
	check(s, keys/2, keys, "a")
	s.stop(t)
	wantFiles(t, dir, "full-000003.fimg")

	if out := refused(t, bin, "-addr", "127.0.0.1:0", "-shards", "3", "-heap", strconv.Itoa(testHeap), "-snapshot", base); !strings.Contains(out, "-shards 2") {
		t.Fatalf("wrong -shards refusal does not name the right count: %q", out)
	}

	legacyDir := t.TempDir()
	legacy := filepath.Join(legacyDir, "kv-0.img")
	if err := os.WriteFile(legacy, []byte("RESPCTPM"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := refused(t, bin, "-addr", "127.0.0.1:0", "-heap", strconv.Itoa(testHeap), "-snapshot", filepath.Join(legacyDir, "kv.img"))
	if !strings.Contains(out, legacy) || !strings.Contains(out, "no migration") {
		t.Fatalf("legacy refusal does not name the file and the missing migration: %q", out)
	}
	if got := storeFiles(t, legacyDir); len(got) != 1 {
		t.Fatalf("refused start wrote beside the legacy image: %v", got)
	}
}
