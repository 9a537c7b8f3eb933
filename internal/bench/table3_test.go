package bench

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var apiCallRe = regexp.MustCompile(`\.(Update|Init|InitFloat|InitInt|InitAddr|UpdateFloat|UpdateInt|UpdateAddr|AddModified|AddModifiedRange|StoreTracked|RP|CheckpointAllow|CheckpointPrevent|CondWait)\(`)

// TestTable3CountsFresh re-measures the Table 3 rows from the sources so the
// published counts cannot silently drift.
func TestTable3CountsFresh(t *testing.T) {
	root := "../.." // package dir is internal/bench
	for _, r := range table3Rows {
		f, err := os.Open(filepath.Join(root, r.file))
		if err != nil {
			t.Fatalf("%s: %v", r.file, err)
		}
		loc, calls := 0, 0
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "//") {
				continue
			}
			loc++
			if apiCallRe.MatchString(line) {
				calls++
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if loc != r.loc || calls != r.apiCalls {
			t.Errorf("%s: measured %d LoC / %d API calls, table says %d / %d — update table3.go",
				r.file, loc, calls, r.loc, r.apiCalls)
		}
	}
}

func TestTable3Renders(t *testing.T) {
	out := Table3()
	for _, want := range []string{"HashMap", "Queue", "Dedup", "KV store", "calls/LoC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table3 missing %q:\n%s", want, out)
		}
	}
}
