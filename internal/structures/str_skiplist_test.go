package structures

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestStrSkipListOrdering drives random string-keyed churn and checks the
// index against a reference map, including range scans with both bounded and
// unbounded ends.
func TestStrSkipListOrdering(t *testing.T) {
	rt := newRespctFixture(t, 1, 0)
	s, err := NewRespctStrSkipList(rt, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]uint64{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < quickCount(4000); i++ {
		k := fmt.Sprintf("user%06d", rng.Intn(500))
		switch rng.Intn(4) {
		case 0:
			wantAbsent := true
			if _, ok := ref[k]; ok {
				wantAbsent = false
			}
			if _, got := s.Insert(0, k, uint64(i)); got != wantAbsent {
				t.Fatalf("Insert(%q) absent=%v want %v", k, got, wantAbsent)
			}
			ref[k] = uint64(i)
		case 1:
			_, want := ref[k]
			if got := s.Remove(0, k); got != want {
				t.Fatalf("Remove(%q) = %v want %v", k, got, want)
			}
			delete(ref, k)
		default:
			want, wantOK := ref[k]
			if v, ok := s.Get(0, k); ok != wantOK || v != want {
				t.Fatalf("Get(%q) = %d,%v want %d,%v", k, v, ok, want, wantOK)
			}
		}
		s.PerOp(0)
	}
	var wantKeys []string
	for k := range ref {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	gotKeys, gotVals := s.Snapshot()
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("snapshot has %d keys, want %d", len(gotKeys), len(wantKeys))
	}
	for i, k := range wantKeys {
		if gotKeys[i] != k || gotVals[i] != ref[k] {
			t.Fatalf("snapshot[%d] = %q,%d want %q,%d", i, gotKeys[i], gotVals[i], k, ref[k])
		}
	}
	// Bounded scan: [from, to] inclusive, stopping early via fn.
	if len(wantKeys) >= 4 {
		from, to := wantKeys[1], wantKeys[len(wantKeys)-2]
		var got []string
		s.Scan(0, from, to, func(k string, v uint64) bool {
			got = append(got, k)
			return len(got) < 3
		})
		want := wantKeys[1:]
		if len(want) > 3 {
			want = want[:3]
		}
		if len(got) != len(want) {
			t.Fatalf("bounded scan returned %d keys, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] || got[i] > to {
				t.Fatalf("bounded scan[%d] = %q want %q (to=%q)", i, got[i], want[i], to)
			}
		}
	}
	s.ThreadExit(0)
}
