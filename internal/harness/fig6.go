package harness

// Fig6 reproduces Fig. 6: the FCT distribution of every flow under the Web
// Search workload at 60% load on the symmetric topology, for each base
// scheme with and without RLB. The paper plots full CDFs; this table prints
// the distribution's quantiles plus the headline tail change.
func Fig6(s Scale, seed uint64) *Table {
	t := &Table{
		Title: "Fig. 6 — FCT of all flows, symmetric topology, Web Search @ 60% load",
		Headers: []string{"scheme", "done", "p25 (ms)", "p50 (ms)", "p75 (ms)",
			"p90 (ms)", "p99 (ms)", "AFCT (ms)", "OOO%"},
	}
	cells, results := MustRunGrid(Fig6Grid(s, seed))
	for i, c := range cells {
		r := results[i]
		t.AddRow(c.Scheme, r.Completed, r.P25, r.P50, r.P75, r.P90, r.P99, r.AFCT, r.OOOPct)
	}
	// Headline: tail change per base scheme (paper: cuts of 58/67/72/54%).
	for i := 0; i < len(cells); i += 2 {
		van, rlb := results[i], results[i+1]
		if van.P99 > 0 {
			red := 100 * (van.P99 - rlb.P99) / van.P99
			t.AddNote("%s: RLB changes p99 FCT by %+.0f%% (paper: cuts up to 58/67/72/54%% for presto/letflow/hermes/drill)",
				cells[i].Scheme, -red)
		}
	}
	return t
}
