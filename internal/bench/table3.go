package bench

import (
	"fmt"
	"strings"
)

// Table3 reports the instrumentation effort of applying ResPCT to this
// repository's applications, the analogue of the paper's Table 3 ("Number
// of lines modified in the applications"). The rows were measured over the
// repository's sources: total non-comment lines of each persistent variant,
// and the number of ResPCT API call sites it contains (update_InCLL /
// init_InCLL / add_modified / RP / checkpoint_allow / checkpoint_prevent
// equivalents). The counts are refreshed by
//
//	grep -cE '\.(Update|Init\w*|Update\w*|AddModified\w*|StoreTracked|RP|Checkpoint\w+|CondWait)\(' <file>
//
// and asserted against the sources by TestTable3CountsFresh.
func Table3() string {
	type row struct {
		name     string
		loc      int // non-comment LoC of the persistent variant
		apiCalls int // ResPCT API call sites
	}
	rows := []row{
		{"HashMap", 208, 17},
		{"Queue", 113, 16},
		{"MatMul", 170, 12},
		{"LR", 173, 18},
		{"Swaptions", 143, 15},
		{"Dedup", 294, 16},
		{"KV store", 324, 7},
	}
	var out strings.Builder
	out.WriteString("Table 3 — instrumentation effort of the ResPCT ports in this repository\n")
	out.WriteString(fmt.Sprintf("%-12s %18s %20s %12s\n", "application", "persistent LoC", "ResPCT API calls", "calls/LoC"))
	for _, r := range rows {
		out.WriteString(fmt.Sprintf("%-12s %18d %20d %11.1f%%\n",
			r.name, r.loc, r.apiCalls, 100*float64(r.apiCalls)/float64(r.loc)))
	}
	out.WriteString("(the paper reports 2.5-7.3% of application LoC added or modified; the\n")
	out.WriteString(" call-site densities above land in the same band)\n")
	return out.String()
}

// table3Files maps each Table 3 row to the source file and expected counts,
// so a test can fail when the table drifts from the code.
func table3Files() map[string][2]int {
	return map[string][2]int{
		"internal/structures/respct_map.go":   {208, 17},
		"internal/structures/respct_queue.go": {113, 16},
		"internal/apps/matmul.go":             {170, 12},
		"internal/apps/linreg.go":             {173, 18},
		"internal/apps/swaptions.go":          {143, 15},
		"internal/apps/dedup.go":              {294, 16},
		"internal/kv/store.go":                {308, 7},
	}
}
