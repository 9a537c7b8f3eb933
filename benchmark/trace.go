package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// series is one entry of the server's /metrics.json: a counter or gauge
// (Value) or a histogram summary (Count, Sum).
type series struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels"`
	Type   string            `json:"type"`
	Value  float64           `json:"value"`
	Count  float64           `json:"count"`
	Sum    float64           `json:"sum"`
}

// scrape is one reading of a -metrics server: every series of /metrics.json,
// plus the histograms' bucket counts, which only the Prometheus text of
// /metrics carries (per series name, summed over label sets, keyed by the
// bucket's power-of-two upper edge).
type scrape struct {
	at      time.Time
	series  []series
	buckets map[string]map[float64]float64
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

func httpGet(url string) (io.ReadCloser, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return resp.Body, nil
}

func scrapeServer(addr string) (*scrape, error) {
	body, err := httpGet("http://" + addr + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	sc := &scrape{at: time.Now()}
	if err := json.NewDecoder(body).Decode(&sc.series); err != nil {
		return nil, fmt.Errorf("/metrics.json: %w", err)
	}
	text, err := httpGet("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer text.Close()
	sc.buckets, err = parseBuckets(text)
	return sc, err
}

// parseBuckets reads the `name_bucket{...,le="edge"} cumulative` lines of a
// Prometheus exposition. Each series' lines come in ascending edge order, so
// the difference to the previous line of the same series is the bucket's own
// count.
func parseBuckets(r io.Reader) (map[string]map[float64]float64, error) {
	out := map[string]map[float64]float64{}
	var prevSeries string
	var prevCum float64
	lines := bufio.NewScanner(r)
	for lines.Scan() {
		line := lines.Text()
		name, rest, ok := strings.Cut(line, "_bucket{")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		labels, value, ok := strings.Cut(rest, "} ")
		i := strings.LastIndex(labels, `le="`)
		if !ok || i < 0 {
			return nil, fmt.Errorf("/metrics: unparseable bucket line %q", line)
		}
		cum, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: unparseable bucket line %q", line)
		}
		id := name + "{" + labels[:i]
		if id != prevSeries {
			prevSeries, prevCum = id, 0
		}
		if edge := strings.TrimSuffix(labels[i+4:], `"`); edge != "+Inf" { // +Inf repeats the last finite bucket's total
			e, err := strconv.ParseFloat(edge, 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics: unparseable bucket line %q", line)
			}
			if out[name] == nil {
				out[name] = map[float64]float64{}
			}
			out[name][e] += cum - prevCum
		}
		prevCum = cum
	}
	return out, lines.Err()
}

// since returns the change from before to sc: counters and histograms are
// differenced series by series; gauges keep their later reading. A series
// absent from before counts from zero.
func (sc *scrape) since(before *scrape) *scrape {
	id := func(s series) string { return s.Name + fmt.Sprint(s.Labels) }
	old := map[string]series{}
	for _, s := range before.series {
		old[id(s)] = s
	}
	d := &scrape{buckets: map[string]map[float64]float64{}}
	for _, s := range sc.series {
		if o := old[id(s)]; s.Type != "gauge" {
			s.Value -= o.Value
			s.Count -= o.Count
			s.Sum -= o.Sum
		}
		d.series = append(d.series, s)
	}
	for name, b := range sc.buckets {
		d.buckets[name] = map[float64]float64{}
		for edge, n := range b {
			d.buckets[name][edge] = n - before.buckets[name][edge]
		}
	}
	return d
}

// total sums a counter or gauge over its label sets.
func (sc *scrape) total(name string) float64 {
	var v float64
	for _, s := range sc.series {
		if s.Name == name {
			v += s.Value
		}
	}
	return v
}

// top is the largest reading of a series over its label sets.
func (sc *scrape) top(name string) float64 {
	var v float64
	for _, s := range sc.series {
		if s.Name == name {
			v = max(v, s.Value)
		}
	}
	return v
}

// hist is a histogram's observation count and their sum, over all its label
// sets.
func (sc *scrape) hist(name string) (count, sum float64) {
	for _, s := range sc.series {
		if s.Name == name {
			count += s.Count
			sum += s.Sum
		}
	}
	return count, sum
}

// mean is a histogram's mean observation (0 when empty).
func (sc *scrape) mean(name string) float64 {
	count, sum := sc.hist(name)
	return ratio(sum, count)
}

// quantileEdge is the upper edge of the bucket holding a histogram's
// q-quantile (0 when empty).
func (sc *scrape) quantileEdge(name string, q float64) float64 {
	b := sc.buckets[name]
	edges := make([]float64, 0, len(b))
	var total float64
	for e, n := range b {
		edges = append(edges, e)
		total += n
	}
	sort.Float64s(edges)
	var seen float64
	for _, e := range edges {
		if seen += b[e]; seen > 0 && seen >= q*total {
			return e
		}
	}
	return 0
}

// ratio is a/b, and 0 when there is nothing to divide by: a workload that
// never exercises a layer reports that layer's ratios as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serverLayers derives the per-layer metrics that come from the -metrics
// server: d is the change in its series over elapsed seconds of the closed
// loop, during which the clients had writes sets acknowledged.
func serverLayers(w *workload, sz sizing, d *scrape, elapsed, writes float64, m map[string]float64) {
	exec := "respct_wire_frame_ns"
	if w.text {
		exec = "respct_kv_op_ns"
	}
	m["kv.exec_mean_us"] = d.mean(exec) / 1e3
	m["kv.exec_p99_le_us"] = d.quantileEdge(exec, 0.99) / 1e3

	wireOps := d.total("respct_wire_ops_total")
	m["wire.bytes_per_op"] = ratio(d.total("respct_wire_bytes_total"), wireOps)
	m["wire.ops_per_frame"] = ratio(wireOps, d.total("respct_wire_frames_total"))

	m["shard.skew"] = ratio(d.top("respct_shard_ops_total")*float64(w.shards), d.total("respct_shard_ops_total"))

	ckpts := d.total("respct_checkpoints_total")
	lines := d.total("respct_flushed_lines_total")
	tracked := d.total("respct_tracked_addrs_total")
	allocs := d.total("respct_arena_allocs_total")
	m["core.ckpt_per_s"] = ckpts / elapsed
	m["core.ckpt_period_ms"] = ratio(float64(w.shards)*elapsed*1e3, ckpts)
	m["core.pause_mean_us"] = d.mean("respct_checkpoint_pause_ns") / 1e3
	m["core.pause_p99_le_us"] = d.quantileEdge("respct_checkpoint_pause_ns", 0.99) / 1e3
	_, paused := d.hist("respct_checkpoint_pause_ns")
	m["core.pause_share"] = paused / 1e9 / elapsed
	m["core.gate_mean_us"] = d.mean("respct_checkpoint_gate_ns") / 1e3
	m["core.lines_per_ckpt"] = ratio(lines, ckpts)
	m["core.lines_per_write"] = ratio(lines, writes)
	m["core.tracked_per_write"] = ratio(tracked, writes)
	m["core.wc_keep_ratio"] = ratio(lines, tracked)
	m["core.drain_mean_us"] = d.mean("respct_drain_ns") / 1e3
	m["core.collision_flushes_per_kwrite"] = ratio(d.total("respct_collision_flushes_total")*1e3, writes)
	m["core.collisions_logged_per_kwrite"] = ratio(d.total("respct_collisions_logged_total")*1e3, writes)
	m["core.collision_log_peak"] = d.top("respct_collision_log_peak")
	m["core.allocs_per_write"] = ratio(allocs, writes)
	m["core.magazine_recycle_ratio"] = ratio(d.total("respct_magazine_recycled_total"), allocs)
	m["core.heap_bytes_per_user_byte"] = d.total("respct_arena_used_bytes") / sz.userBytes()

	m["pmem.flushes_per_write"] = ratio(d.total("respct_pmem_flushes_total"), writes)
	m["pmem.fences_per_ckpt"] = ratio(d.total("respct_pmem_fences_total"), ckpts)
	m["pmem.evictions"] = d.total("respct_pmem_evictions_total")
}

// selfCPU is the benchmark process's own user+system CPU time so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// clientLayers derives the generator's own metrics from the untraced closed
// loop (closed, which used cpu seconds of generator CPU) and the open loop.
func clientLayers(w *workload, closed, open *phaseStats, cpu float64, m map[string]float64) {
	ops := float64(closed.ops)
	m["client.lat_p50_us"] = quantileUs(closed.lat, 0.50)
	m["client.lat_p99_us"] = quantileUs(closed.lat, 0.99)
	m["client.lat_p999_us"] = quantileUs(closed.lat, 0.999)
	m["client.lat_max_us"] = quantileUs(closed.lat, 1)
	m["client.stall_frac"] = float64(closed.slow) / (closed.wall.Seconds() * 1e9 * clientConns)
	for k, name := range kindNames {
		m["client."+name+"_p50_us"] = quantileUs(closed.kindLat[k], 0.50)
	}
	m["client.bytes_tx_per_op"] = float64(closed.tx) / ops
	m["client.bytes_rx_per_op"] = float64(closed.rx) / ops
	m["client.cpu_us_per_op"] = cpu * 1e6 / ops
	m["client.open_p50_us"] = quantileUs(open.lat, 0.50)
	m["client.open_p99_us"] = quantileUs(open.lat, 0.99)
	m["client.open_late_p50_us"] = quantileUs(open.late, 0.50)
	m["client.open_late_p99_us"] = quantileUs(open.late, 0.99)
	m["client.open_backlog_peak"] = float64(open.backlog)
}

// traced gives the per-layer numbers from outside the program. Two servers
// hold the same data, one started as an operator would (untraced), one with
// -metrics (traced). The closed loop runs a quarter of the measured time on
// the untraced server, half on the traced one between two scrapes, and the
// last quarter on the untraced one again, so that drift over the run cancels
// in the traced/untraced throughput ratio. The open-loop diagnostic then runs
// on the untraced server, and the in-process ladder last, alone on the host.
func (r *run) traced() (*measurement, error) {
	untraced, _, err := r.setUp(filepath.Join(r.dir, "untraced", "kv.img"))
	if err != nil {
		return nil, err
	}
	untraced.freeze(true)
	tracedSrv, _, err := r.setUp(filepath.Join(r.dir, "traced", "kv.img"), "-metrics", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// slice warms s up, then runs the closed loop on it for length. around
	// brackets the measured part only.
	slice := func(s *server, length time.Duration, around func() error) (*phaseStats, error) {
		if err := r.connect(s); err != nil {
			return nil, err
		}
		if _, err := r.closedLoop(s, r.sz.warmup); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := around(); err != nil {
			return nil, err
		}
		st, err := r.closedLoop(s, length)
		if err != nil {
			return nil, err
		}
		return st, around()
	}
	// Only the server being measured runs: the other one is frozen, so its
	// idle checkpoints and garbage collector take no CPU from the pair.
	var cpu float64 // the generator's own CPU time inside the untraced slices
	sign := -1.0
	ownCPU := func() error { cpu += sign * selfCPU(); sign = -sign; return nil }
	tracedSrv.freeze(true)
	untraced.freeze(false)
	closed, err := slice(untraced, r.seconds/4, ownCPU)
	if err != nil {
		return nil, err
	}

	untraced.freeze(true)
	tracedSrv.freeze(false)
	var scrapes []*scrape // before and after the measured part
	tr, err := slice(tracedSrv, r.seconds/2, func() error {
		sc, err := scrapeServer(tracedSrv.metrics)
		scrapes = append(scrapes, sc)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.disconnect()
	tracedSrv.kill()

	untraced.freeze(false)
	last, err := slice(untraced, r.seconds/4, ownCPU)
	if err != nil {
		return nil, err
	}
	wall := closed.wall + last.wall
	closed.merge(last)
	closed.wall = wall

	open, err := r.openLoop(untraced, r.sz.openLoop)
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	m := map[string]float64{}
	if err := r.recoverCycle(untraced, m); err != nil {
		return nil, err
	}
	for _, name := range []string{"shutdown_s", "restart_s", "verify_s"} {
		m["client."+name] = m[name]
	}
	clientLayers(r.w, closed, open, cpu, m)
	serverLayers(r.w, r.sz, scrapes[1].since(scrapes[0]), scrapes[1].at.Sub(scrapes[0].at).Seconds(), float64(tr.kinds[opSet]), m)
	m["telemetry.overhead_frac"] = 1 - float64(tr.ops)/tr.wall.Seconds()/(float64(closed.ops)/closed.wall.Seconds())
	p50ns := quantileUs(closed.lat, 0.50) * 1e3
	if err := ladder(r.w, r.sz, r.seed, r.dir, m); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	m["ladder.reconcile_ratio"] = m["kv.server_op_ns"] / (p50ns / float64(r.w.depth))
	return &measurement{values: m, samples: len(closed.lat)}, nil
}
