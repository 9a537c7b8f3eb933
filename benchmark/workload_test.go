package main

import (
	"bytes"
	"testing"
)

// stream renders the first n requests connection conn would send in phase.
func stream(w *workload, seed int64, conn, phase, n int) []byte {
	var seq uint64
	g := newGen(w, 2000, newZipf(2000), seed, conn, phase, &seq)
	var out []byte
	for i := 0; i < n; i++ {
		if w.text {
			out = appendTextOp(out, g.next(), byte(conn))
			continue
		}
		start := len(out)
		out = beginFrame(out)
		for j := 0; j < w.depth; j++ {
			out = appendBinaryOp(out, g.next(), byte(conn))
		}
		endFrame(out[start:], w.depth)
	}
	return out
}

// The seed is the only input: the same seed yields a byte-identical op
// stream, and another seed, connection or phase yields another.
func TestSameSeedSameBytes(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := stream(w, 42, 0, 2, 200)
		if !bytes.Equal(a, stream(w, 42, 0, 2, 200)) {
			t.Errorf("%s: seed 42 gave two different streams", w.name)
		}
		for name, b := range map[string][]byte{
			"seed":       stream(w, 43, 0, 2, 200),
			"connection": stream(w, 42, 1, 2, 200),
			"phase":      stream(w, 42, 0, 1, 200),
		} {
			if bytes.Equal(a, b) {
				t.Errorf("%s: another %s gave the same stream", w.name, name)
			}
		}
	}
}

func TestMixAndKeys(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		var seq uint64
		g := newGen(w, 2000, newZipf(2000), 1, 0, 2, &seq)
		var kinds [numKinds]float64
		hot := map[int]int{}
		const n = 100_000
		for j := 0; j < n; j++ {
			o := g.next()
			kinds[o.kind]++
			hot[o.key]++
			if o.key < 0 || o.key >= 2000 || (o.kind == opScan && (o.limit < 1 || o.limit > 100)) {
				t.Fatalf("%s: op out of range: %+v", w.name, o)
			}
		}
		want := [numKinds]float64{w.getFrac, 1 - w.getFrac - w.scanFrac, w.scanFrac}
		for k := range kinds {
			if got := kinds[k] / n; got < want[k]-0.01 || got > want[k]+0.01 {
				t.Errorf("%s: %s share %.3f, want %.2f", w.name, kindNames[k], got, want[k])
			}
		}
		top := 0
		for _, c := range hot {
			top = max(top, c)
		}
		// Zipfian theta 0.99 over 2000 items gives the hottest key ~12% of
		// the draws; uniform gives each 0.05%.
		if skewed := top > n/20; skewed != w.zipfian {
			t.Errorf("%s: hottest key drew %d of %d, zipfian=%v", w.name, top, n, w.zipfian)
		}
		if seq != uint64(kinds[opSet]) {
			t.Errorf("%s: %d sets but write sequence at %d", w.name, int(kinds[opSet]), seq)
		}
	}
}

func TestValueStamp(t *testing.T) {
	v := appendValue(nil, 123456, 1, 99)
	if key, conn, seq, ok := valueStamp(v); !ok || key != 123456 || conn != 1 || seq != 99 || len(v) != valueLen {
		t.Fatalf("stamp: %d %d %d %v, %d bytes", key, conn, seq, ok, len(v))
	}
	v[50] ^= 1
	if _, _, _, ok := valueStamp(v); ok {
		t.Error("damaged filler accepted")
	}
	if _, _, _, ok := valueStamp(v[:valueLen-1]); ok {
		t.Error("short value accepted")
	}
	k := appendKey(nil, 123456)
	if string(k) != "user000000123456" {
		t.Errorf("key: %q", k)
	}
	if i, ok := parseKey(k); !ok || i != 123456 {
		t.Errorf("parseKey: %d %v", i, ok)
	}
	if _, ok := parseKey([]byte("user00000012345x")); ok {
		t.Error("non-numeric key accepted")
	}
}
