package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/kv"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/wire"
	"github.com/respct/respct/internal/ycsb"
)

// NetRow is one cell of a protocol × depth sweep (fignet, figscan): a wire
// protocol at one pipeline depth against the ResPCT-backed server. Kops is
// closed-loop capacity (batches issued back to back); the latency quantiles
// come from a separate open-loop pass at OpenRateKops — a Poisson arrival
// schedule at ~70% of the measured capacity, with latency accounted from
// each batch's intended start, so the tails are coordinated-omission safe.
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

// openLoadFraction sets the open-loop arrival rate relative to the measured
// closed-loop capacity: high enough to be a serving load, low enough that
// the queue is stable and the tail reflects service jitter, not saturation
// collapse.
const openLoadFraction = 0.7

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

// FigNet runs a protocol × depth sweep: text and binary at every depth, each
// cell a closed-loop capacity probe plus an open-loop tail pass, against a
// ResPCT store built with opts (plain for fignet, structures for figscan's
// ordered scans) behind the server. w is loaded once; every cell reconnects,
// so protocol and depth changes never share connection state. The table
// opens with title and ends with the binary/text capacity ratio per depth.
func FigNet(s KVScale, opts kv.StoreOptions, w ycsb.Workload, depths []int, title string, log func(string)) (string, []NetRow) {
	h := pmem.New(pmem.NVMMConfig(s.HeapBytes))
	rt, err := core.NewRuntime(h, core.Config{Threads: s.Workers})
	if err != nil {
		panic(err)
	}
	st, err := kv.NewRespctStoreOpts(rt, 0, opts)
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

	loader, err := newTCPExecutor(srv.Addr(), w.Clients)
	if err != nil {
		panic(err)
	}
	if _, err := ycsb.Load(w, loader); err != nil {
		panic(err)
	}
	loader.closeAll()

	var out strings.Builder
	out.WriteString(title + "\n")
	out.WriteString(fmt.Sprintf("open-loop tails at %.0f%% of measured capacity (Poisson arrivals, intended-start latency)\n", 100*openLoadFraction))
	out.WriteString(fmt.Sprintf("%-8s %6s %12s %14s %10s %10s %10s %10s\n",
		"protocol", "depth", "kops/s", "open kops/s", "p50", "p99", "p999", "max"))
	var rows []NetRow
	for _, proto := range []string{"text", "binary"} {
		for _, depth := range depths {
			if log != nil {
				log(fmt.Sprintf("%s %s depth=%d", w.Name, proto, depth))
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
	ratios := capacityRatios(rows)
	for _, depth := range depths {
		if r, ok := ratios[depth]; ok {
			out.WriteString(fmt.Sprintf("binary/text capacity ratio at depth %2d: %.2fx\n", depth, r))
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

// capacityRatios returns the binary/text capacity ratio per depth; a depth
// without both protocols measured has none.
func capacityRatios(rows []NetRow) map[int]float64 {
	text := map[int]float64{}
	for _, r := range rows {
		if r.Protocol == "text" {
			text[r.Depth] = r.Kops
		}
	}
	ratios := map[int]float64{}
	for _, r := range rows {
		if t := text[r.Depth]; r.Protocol == "binary" && t > 0 {
			ratios[r.Depth] = r.Kops / t
		}
	}
	return ratios
}

// ratioQuantities is the fignet and figscan gate: the binary/text capacity
// ratio at depth 8, higher is better. Absolute throughput swings with the
// host; the ratio is the figure the wire subsystem owns. Depth 8 is the
// batched regime the binary protocol exists for and the one depth both
// figures measure: depth 1 prices the per-request path the protocols share,
// and deeper pipelines buffer large scan replies.
func ratioQuantities(rows []NetRow) map[string]float64 {
	q := map[string]float64{}
	if r, ok := capacityRatios(rows)[8]; ok {
		q["depth 8"] = r
	}
	return q
}
