package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/ycsb"
)

// figScan measures the ordered-scan surface (docs/COMMANDS.md) under YCSB
// workload E: 95% short range scans (zipfian start key, uniform length up to
// 100 entries), 5% writes, against the structures-mode ResPCT store behind
// the server. Cells share figNet's shape — protocol × pipeline depth, a
// closed-loop capacity probe plus an open-loop tail pass — and reuse NetRow,
// so the same JSON report and binary/text ratio gate apply
// (BENCH_figscan.json, CompareScanBaseline).

// scanDepths are the pipeline depths each protocol is measured at. Scans
// carry multi-entry replies, so deep pipelines buffer large responses;
// depth 8 is already firmly in the batched regime.
var scanDepths = []int{1, 8}

// FigScan runs the scan-heavy comparison and renders the table.
func FigScan(s KVScale, log func(string)) string {
	out, _ := FigScanR(s, log)
	return out
}

// FigScanR is FigScan returning the raw rows as well. One structures-mode
// ResPCT store and server serve every cell; the load phase fills the ordered
// index once, and every cell reconnects so protocol and depth changes never
// share connection state.
func FigScanR(s KVScale, log func(string)) (string, []NetRow) {
	h := pmem.New(pmem.NVMMConfig(s.HeapBytes))
	rt, err := core.NewRuntime(h, core.Config{Threads: s.Workers})
	if err != nil {
		panic(err)
	}
	st, err := kv.NewRespctStoreOpts(rt, 0, kv.StoreOptions{Buckets: s.Buckets, Structures: true})
	if err != nil {
		panic(err)
	}
	rt.CheckpointIdle()
	gated := kv.Gate(st)
	ck := rt.StartCheckpointer(s.Interval)
	defer ck.Stop()
	srv, err := kv.NewServer(gated, s.Workers, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	w := ycsb.WorkloadE(s.Records, s.Operations, s.ValueSize, s.Clients)
	loader, err := newTCPExecutor(srv.Addr(), s.Clients)
	if err != nil {
		panic(err)
	}
	if _, err := ycsb.Load(w, loader); err != nil {
		panic(err)
	}
	loader.closeAll()

	var out strings.Builder
	out.WriteString(fmt.Sprintf("figScan — YCSB-E ordered scans, structures-mode ResPCT store, %d keys, %d-byte values, max scan %d, %d clients, %d workers\n",
		s.Records, s.ValueSize, w.MaxScanLen, s.Clients, s.Workers))
	out.WriteString(fmt.Sprintf("open-loop tails at %.0f%% of measured capacity (Poisson arrivals, intended-start latency)\n", 100*openLoadFraction))
	out.WriteString(fmt.Sprintf("%-8s %6s %12s %14s %10s %10s %10s %10s\n",
		"protocol", "depth", "kops/s", "open kops/s", "p50", "p99", "p999", "max"))
	var rows []NetRow
	for _, proto := range []string{"text", "binary"} {
		for _, depth := range scanDepths {
			if log != nil {
				log(fmt.Sprintf("figscan %s depth=%d", proto, depth))
			}
			row := runNetCell(srv.Addr(), w, proto, depth)
			rows = append(rows, row)
			out.WriteString(fmt.Sprintf("%-8s %6d %12.1f %14.1f %10v %10v %10v %10v\n",
				row.Protocol, row.Depth, row.Kops, row.OpenRateKops,
				time.Duration(row.P50).Round(time.Microsecond),
				time.Duration(row.P99).Round(time.Microsecond),
				time.Duration(row.P999).Round(time.Microsecond),
				time.Duration(row.Max).Round(time.Microsecond)))
			runtime.GC()
		}
	}
	for _, depth := range scanDepths {
		t, b := netCell(rows, "text", depth), netCell(rows, "binary", depth)
		if t != nil && b != nil && t.Kops > 0 {
			out.WriteString(fmt.Sprintf("binary/text capacity ratio at depth %2d: %.2fx\n", depth, b.Kops/t.Kops))
		}
	}
	return out.String(), rows
}

// CompareScanBaseline checks fresh figScan rows against a checked-in
// BENCH_figscan.json, gating the binary/text capacity ratio per depth like
// CompareNetBaseline.
func CompareScanBaseline(path string, rows []NetRow, tolerance float64) error {
	return compareRatioBaseline("figscan", path, rows, scanDepths, tolerance)
}
