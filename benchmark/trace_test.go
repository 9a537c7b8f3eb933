package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const scrapeBeforeJSON = `[
 {"name":"respct_checkpoints_total","labels":{"shard":"0"},"type":"counter","value":10},
 {"name":"respct_checkpoints_total","labels":{"shard":"1"},"type":"counter","value":20},
 {"name":"respct_arena_used_bytes","labels":{"shard":"0"},"type":"gauge","value":1000},
 {"name":"respct_checkpoint_pause_ns","labels":{"shard":"0"},"type":"histogram","count":4,"sum":4000,"mean":1000,"p50":900,"p99":2000,"max":2100}
]`

const scrapeAfterJSON = `[
 {"name":"respct_checkpoints_total","labels":{"shard":"0"},"type":"counter","value":25},
 {"name":"respct_checkpoints_total","labels":{"shard":"1"},"type":"counter","value":30},
 {"name":"respct_arena_used_bytes","labels":{"shard":"0"},"type":"gauge","value":1500},
 {"name":"respct_checkpoint_pause_ns","labels":{"shard":"0"},"type":"histogram","count":10,"sum":16000,"mean":1600,"p50":900,"p99":2000,"max":9000},
 {"name":"respct_drains_total","labels":{"shard":"0"},"type":"counter","value":7}
]`

const bucketsBefore = `# HELP respct_checkpoint_pause_ns worker-visible checkpoint pause
# TYPE respct_checkpoint_pause_ns histogram
respct_checkpoint_pause_ns_bucket{shard="0",le="512"} 0
respct_checkpoint_pause_ns_bucket{shard="0",le="1024"} 3
respct_checkpoint_pause_ns_bucket{shard="0",le="2048"} 4
respct_checkpoint_pause_ns_bucket{shard="0",le="+Inf"} 4
respct_checkpoint_pause_ns_sum{shard="0"} 4000
respct_checkpoint_pause_ns_count{shard="0"} 4
respct_checkpoints_total{shard="0"} 10
`

const bucketsAfter = `respct_checkpoint_pause_ns_bucket{shard="0",le="512"} 0
respct_checkpoint_pause_ns_bucket{shard="0",le="1024"} 5
respct_checkpoint_pause_ns_bucket{shard="0",le="2048"} 6
respct_checkpoint_pause_ns_bucket{shard="0",le="4096"} 6
respct_checkpoint_pause_ns_bucket{shard="0",le="8192"} 9
respct_checkpoint_pause_ns_bucket{shard="0",le="+Inf"} 9
respct_checkpoint_pause_ns_bucket{shard="1",le="16384"} 1
respct_checkpoint_pause_ns_bucket{shard="1",le="+Inf"} 1
`

func parseScrape(t *testing.T, js, prom string) *scrape {
	t.Helper()
	sc := &scrape{}
	if err := json.Unmarshal([]byte(js), &sc.series); err != nil {
		t.Fatal(err)
	}
	var err error
	if sc.buckets, err = parseBuckets(strings.NewReader(prom)); err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestScrapeDelta(t *testing.T) {
	before := parseScrape(t, scrapeBeforeJSON, bucketsBefore)
	after := parseScrape(t, scrapeAfterJSON, bucketsAfter)
	if got := before.buckets["respct_checkpoint_pause_ns"]; got[1024] != 3 || got[2048] != 1 || len(got) != 3 {
		t.Fatalf("cumulative buckets not differenced: %v", got)
	}
	d := after.since(before)
	if got := d.total("respct_checkpoints_total"); got != 25 { // (25-10) + (30-20)
		t.Errorf("counter delta over label sets: %v", got)
	}
	if got := d.top("respct_checkpoints_total"); got != 15 {
		t.Errorf("largest per-label delta: %v", got)
	}
	if got := d.total("respct_drains_total"); got != 7 {
		t.Errorf("a series born between the scrapes counts from zero: %v", got)
	}
	if got := d.total("respct_arena_used_bytes"); got != 1500 {
		t.Errorf("a gauge keeps its later reading: %v", got)
	}
	if got := d.mean("respct_checkpoint_pause_ns"); got != 2000 { // (16000-4000)/(10-4)
		t.Errorf("histogram mean over the interval: %v", got)
	}
	if n, sum := d.hist("respct_checkpoint_pause_ns"); n != 6 || sum != 12000 {
		t.Errorf("histogram count and sum over the interval: %v %v", n, sum)
	}
	// The interval's observations: 2 in (512,1024], 3 in (4096,8192] and
	// shard 1's single one in (8192,16384].
	for q, want := range map[float64]float64{0.3: 1024, 0.5: 8192, 0.8: 8192, 0.99: 16384} {
		if got := d.quantileEdge("respct_checkpoint_pause_ns", q); got != want {
			t.Errorf("p%.0f bucket edge %v, want %v", 100*q, got, want)
		}
	}
	if d.mean("respct_drain_ns") != 0 || d.quantileEdge("respct_drain_ns", 0.99) != 0 {
		t.Error("an absent histogram reads 0")
	}
	if _, err := parseBuckets(strings.NewReader(`x_bucket{le="oops"} 1`)); err == nil {
		t.Error("unparseable edge accepted")
	}
}

func TestServerLayers(t *testing.T) {
	d := parseScrape(t, scrapeAfterJSON, bucketsAfter).since(parseScrape(t, scrapeBeforeJSON, bucketsBefore))
	w := &workload{shards: 2}
	m := map[string]float64{}
	serverLayers(w, sizing{records: 10}, d, 2, 100, m)
	for name, want := range map[string]float64{
		"core.ckpt_per_s":               12.5,  // 25 checkpoints in 2 s
		"core.ckpt_period_ms":           160,   // 2 shards x 2000 ms / 25
		"core.pause_mean_us":            2,     // 12000 ns / 6
		"core.pause_share":              6e-06, // 12000 ns of 2 s
		"core.pause_p99_le_us":          16.384,
		"core.lines_per_write":          0, // no such series in the fixture: ratios of nothing are 0
		"core.heap_bytes_per_user_byte": 1500.0 / 1160,
	} {
		if got := m[name]; got < want*(1-1e-9) || got > want*(1+1e-9) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
