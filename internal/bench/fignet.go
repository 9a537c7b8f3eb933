package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/wire"
	"github.com/respct/respct/internal/ycsb"
)

// NetRow is one cell of the figNet protocol comparison: a wire protocol at
// one pipeline depth against the ResPCT-backed server. Kops is closed-loop
// capacity (batches issued back to back); the latency quantiles come from a
// separate open-loop pass at OpenRateKops — a Poisson arrival schedule at
// ~70% of the measured capacity, with latency accounted from each batch's
// intended start, so the tails are coordinated-omission safe.
type NetRow struct {
	Protocol     string  `json:"protocol"` // "text" or "binary"
	Depth        int     `json:"depth"`    // ops per pipelined batch
	Kops         float64 `json:"kops_per_sec"`
	OpenRateKops float64 `json:"open_rate_kops"`
	P50          int64   `json:"p50_ns"`
	P99          int64   `json:"p99_ns"`
	P999         int64   `json:"p999_ns"`
	Max          int64   `json:"max_ns"`
}

// netDepths are the pipeline depths each protocol is measured at.
var netDepths = []int{1, 8, 64}

// openLoadFraction sets the open-loop arrival rate relative to the measured
// closed-loop capacity: high enough to be a serving load, low enough that
// the queue is stable and the tail reflects service jitter, not saturation
// collapse.
const openLoadFraction = 0.7

// FigNet runs the network protocol comparison and renders the table.
func FigNet(s KVScale, log func(string)) string {
	out, _ := FigNetR(s, log)
	return out
}

// textBatchExec drives pipelined batches over the text protocol: N commands
// written back to back, one flush, N replies read in order.
type textBatchExec struct{ clients []*kv.Client }

func (e *textBatchExec) ExecBatch(cli int, ops []ycsb.BatchOp) error {
	c := e.clients[cli]
	for i := range ops {
		var err error
		switch {
		case ops[i].Scan:
			err = c.SendScan(ops[i].Key, "", ops[i].ScanLimit)
		case ops[i].Read:
			err = c.SendGet(ops[i].Key)
		default:
			err = c.SendSet(ops[i].Key, ops[i].Value)
		}
		if err != nil {
			return err
		}
	}
	if err := c.Flush(); err != nil {
		return err
	}
	for i := range ops {
		var err error
		switch {
		case ops[i].Scan:
			_, err = c.RecvScan()
		case ops[i].Read:
			_, _, err = c.RecvGet()
		default:
			err = c.RecvSet()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// binBatchExec drives pipelined batches over the binary protocol: one
// request frame per batch, one response frame back.
type binBatchExec struct{ clients []*kv.BinaryClient }

func (e *binBatchExec) ExecBatch(cli int, ops []ycsb.BatchOp) error {
	c := e.clients[cli]
	q := c.Queue()
	for i := range ops {
		switch {
		case ops[i].Scan:
			q.Scan(ops[i].Key, "", uint32(ops[i].ScanLimit))
		case ops[i].Read:
			q.Get(ops[i].Key)
		default:
			q.Set(ops[i].Key, ops[i].Value)
		}
	}
	fut, err := c.Send()
	if err != nil {
		return err
	}
	res, err := fut.Wait()
	if err != nil {
		return err
	}
	for i := range res {
		switch {
		case ops[i].Scan:
			if res[i].Status != wire.StatusEntries {
				return fmt.Errorf("bench: scan status 0x%02x", res[i].Status)
			}
		case !ops[i].Read && res[i].Status != wire.StatusStored:
			return fmt.Errorf("bench: set status 0x%02x", res[i].Status)
		}
	}
	return nil
}

// FigNetR is FigNet returning the raw rows as well. One ResPCT store and
// server serve every cell (load phase runs once); per cell the executor
// reconnects, so depth and protocol changes never share connection state.
func FigNetR(s KVScale, log func(string)) (string, []NetRow) {
	h := pmem.New(pmem.NVMMConfig(s.HeapBytes))
	rt, err := core.NewRuntime(h, core.Config{Threads: s.Workers})
	if err != nil {
		panic(err)
	}
	st, err := kv.NewRespctStore(rt, 0, s.Buckets)
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

	w := ycsb.Workload{
		Name: "fignet", Records: s.Records, Operations: s.Operations,
		ReadProp: 0.5, ValueSize: s.ValueSize, Zipfian: true,
		Clients: s.Clients, Seed: 42,
	}
	loader, err := newTCPExecutor(srv.Addr(), s.Clients)
	if err != nil {
		panic(err)
	}
	if _, err := ycsb.Load(w, loader); err != nil {
		panic(err)
	}
	loader.closeAll()

	var out strings.Builder
	out.WriteString(fmt.Sprintf("figNet — wire protocol comparison, ResPCT store, %d keys, %d-byte values, %d clients, %d workers\n",
		s.Records, s.ValueSize, s.Clients, s.Workers))
	out.WriteString(fmt.Sprintf("open-loop tails at %.0f%% of measured capacity (Poisson arrivals, intended-start latency)\n", 100*openLoadFraction))
	out.WriteString(fmt.Sprintf("%-8s %6s %12s %14s %10s %10s %10s %10s\n",
		"protocol", "depth", "kops/s", "open kops/s", "p50", "p99", "p999", "max"))
	var rows []NetRow
	for _, proto := range []string{"text", "binary"} {
		for _, depth := range netDepths {
			if log != nil {
				log(fmt.Sprintf("fignet %s depth=%d", proto, depth))
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
	for _, depth := range netDepths {
		t, b := netCell(rows, "text", depth), netCell(rows, "binary", depth)
		if t != nil && b != nil && t.Kops > 0 {
			out.WriteString(fmt.Sprintf("binary/text capacity ratio at depth %2d: %.2fx\n", depth, b.Kops/t.Kops))
		}
	}
	return out.String(), rows
}

// runNetCell measures one protocol × depth cell: a closed-loop capacity
// probe, then an open-loop pass at openLoadFraction of that capacity.
func runNetCell(addr string, w ycsb.Workload, proto string, depth int) NetRow {
	ex, closeEx := dialBatchExec(addr, proto, w.Clients)
	defer closeEx()
	o := ycsb.OpenLoop{Workload: w, BatchOps: depth}
	cap, err := ycsb.RunBatches(o, ex)
	if err != nil {
		panic(err)
	}
	rate := cap.KopsPerSec() * 1e3 * openLoadFraction
	o.Rate = rate
	open, err := ycsb.RunOpen(o, ex)
	if err != nil {
		panic(err)
	}
	return NetRow{
		Protocol:     proto,
		Depth:        depth,
		Kops:         cap.KopsPerSec(),
		OpenRateKops: rate / 1e3,
		P50:          open.P50.Nanoseconds(),
		P99:          open.P99.Nanoseconds(),
		P999:         open.P999.Nanoseconds(),
		Max:          open.Max.Nanoseconds(),
	}
}

func dialBatchExec(addr, proto string, n int) (ycsb.BatchExecutor, func()) {
	if proto == "binary" {
		e := &binBatchExec{clients: make([]*kv.BinaryClient, n)}
		for i := range e.clients {
			c, err := kv.DialBinary(addr, 0)
			if err != nil {
				panic(err)
			}
			e.clients[i] = c
		}
		return e, func() {
			for _, c := range e.clients {
				c.Close()
			}
		}
	}
	e := &textBatchExec{clients: make([]*kv.Client, n)}
	for i := range e.clients {
		c, err := kv.Dial(addr)
		if err != nil {
			panic(err)
		}
		e.clients[i] = c
	}
	return e, func() {
		for _, c := range e.clients {
			c.Close()
		}
	}
}

func netCell(rows []NetRow, proto string, depth int) *NetRow {
	for i := range rows {
		if rows[i].Protocol == proto && rows[i].Depth == depth {
			return &rows[i]
		}
	}
	return nil
}

// CompareNetBaseline checks fresh figNet rows against a checked-in
// BENCH_fignet.json. Absolute throughput swings with the host, so the gate
// is the binary/text capacity ratio per depth — the figure the wire
// subsystem owns: the ratio must not fall more than tolerance below the
// baseline's. Depths missing from either side are ignored.
func CompareNetBaseline(path string, rows []NetRow, tolerance float64) error {
	return compareRatioBaseline("fignet", path, rows, netDepths, tolerance)
}

// compareRatioBaseline is the shared binary/text ratio gate behind the
// fignet and figscan baselines.
func compareRatioBaseline(fig, path string, rows []NetRow, depths []int, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep struct {
		Rows []NetRow `json:"rows"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	ratio := func(rs []NetRow, depth int) float64 {
		t, b := netCell(rs, "text", depth), netCell(rs, "binary", depth)
		if t == nil || b == nil || t.Kops <= 0 {
			return 0
		}
		return b.Kops / t.Kops
	}
	var bad []string
	for _, depth := range depths {
		base, cur := ratio(rep.Rows, depth), ratio(rows, depth)
		if base <= 0 || cur <= 0 {
			continue
		}
		if cur < base*(1-tolerance) {
			bad = append(bad, fmt.Sprintf("depth %d: binary/text ratio %.2fx vs baseline %.2fx (-%.1f%%)",
				depth, cur, base, 100*(1-cur/base)))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s regression beyond %.0f%%:\n  %s", fig, 100*tolerance, strings.Join(bad, "\n  "))
	}
	return nil
}
