package main

import (
	"os"
	"testing"
	"time"
)

// The smoke runs take the real path at toy scale: build cmd/kvserver, serve,
// snapshot on SIGTERM, restart, verify every key, scrape and difference the
// telemetry, climb the ladder. They check plumbing, not numbers.
func smoke(t *testing.T, name string, trace bool) *outcome {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs kvserver")
	}
	out, err := runOne(options{root: "..", sz: smokeSizing, seed: 7, seconds: time.Second, trace: trace}, findWorkload(name))
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 || out.Attempted < uint64(2*smokeSizing.records) {
		t.Fatalf("%d failed of %d attempted", out.Failed, out.Attempted)
	}
	if left, _ := os.ReadDir("../" + buildDir); len(left) > 3 { // kvserver, and run.sh's gocache and tmp
		t.Errorf("run left %d entries under %s", len(left), buildDir)
	}
	return out
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, name := range []string{"point-text", "scan-mix"} { // the text path; scans and their oracle
		out := smoke(t, name, false)
		for _, d := range endToEndMetrics {
			if v, ok := out.Values[d.name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v", name, d.name, v)
			}
		}
		if out.Samples == 0 {
			t.Errorf("%s: no latency samples", name)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	out := smoke(t, "write-batch-async4", true) // shards, async drains, batched frames
	for _, d := range perLayerMetrics {
		if _, ok := out.Values[d.name]; !ok {
			t.Errorf("%s missing", d.name)
		}
	}
	for _, name := range []string{"kv.exec_mean_us", "wire.ops_per_frame", "core.ckpt_per_s", "core.drain_mean_us",
		"core.lines_per_ckpt", "pmem.flushes_per_write", "kv.server_op_ns", "frame.restore_ms", "core.recover_ms",
		"client.open_p50_us", "client.set_p50_us"} {
		if out.Values[name] <= 0 {
			t.Errorf("%s = %v: the layer saw no work", name, out.Values[name])
		}
	}
	sum := out.Values["kv.store_op_ns"] + out.Values["shard.self_ns"] + out.Values["kv.apply_self_ns"] + out.Values["kv.server_self_ns"]
	if top := out.Values["kv.server_op_ns"]; sum < top*0.999999 || sum > top*1.000001 {
		t.Errorf("self times sum to %v, top rung is %v", sum, top)
	}
	if got := out.Values["wire.ops_per_frame"]; got != 64 {
		t.Errorf("wire.ops_per_frame = %v", got)
	}
}
