package bench

import (
	"fmt"
	"strings"
)

// table3Row is one Table 3 row: the persistent variant's source file, its
// non-comment lines and its ResPCT API call sites.
type table3Row struct {
	name     string
	file     string
	loc      int
	apiCalls int
}

// table3Rows are the Table 3 rows in print order, measured over the
// repository's sources: total non-comment lines of each persistent variant,
// and the number of ResPCT API call sites it contains (update_InCLL /
// init_InCLL / add_modified / RP / checkpoint_allow / checkpoint_prevent
// equivalents). The counts are refreshed by
//
//	grep -cE '\.(Update|Init\w*|Update\w*|AddModified\w*|StoreTracked|RP|Checkpoint\w+|CondWait)\(' <file>
//
// and asserted against the sources by TestTable3CountsFresh.
var table3Rows = []table3Row{
	{"HashMap", "internal/structures/respct_map.go", 208, 17},
	{"Queue", "internal/structures/respct_queue.go", 113, 16},
	{"MatMul", "internal/apps/matmul.go", 170, 12},
	{"LR", "internal/apps/linreg.go", 173, 18},
	{"Swaptions", "internal/apps/swaptions.go", 143, 15},
	{"Dedup", "internal/apps/dedup.go", 294, 16},
	{"KV store", "internal/kv/store.go", 311, 7},
}

// Table3 reports the instrumentation effort of applying ResPCT to this
// repository's applications, the analogue of the paper's Table 3 ("Number
// of lines modified in the applications"), rendered from table3Rows.
func Table3() string {
	var out strings.Builder
	out.WriteString("Table 3 — instrumentation effort of the ResPCT ports in this repository\n")
	out.WriteString(fmt.Sprintf("%-12s %18s %20s %12s\n", "application", "persistent LoC", "ResPCT API calls", "calls/LoC"))
	for _, r := range table3Rows {
		out.WriteString(fmt.Sprintf("%-12s %18d %20d %11.1f%%\n",
			r.name, r.loc, r.apiCalls, 100*float64(r.apiCalls)/float64(r.loc)))
	}
	out.WriteString("(the paper reports 2.5-7.3% of application LoC added or modified; the\n")
	out.WriteString(" call-site densities above land in the same band)\n")
	return out.String()
}
