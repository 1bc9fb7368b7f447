package harness

// Fig3 reproduces Fig. 3: the four load-balancing schemes in the Fig. 2
// scenario, with PFC enabled vs. disabled, measuring (a) PFC pause rate,
// (b) 99th-percentile out-of-order degree, (c) average FCT and (d) 99th
// percentile FCT of the background flows.
func Fig3(s Scale, seed uint64) *Table {
	t := &Table{
		Title: "Fig. 3 — LB schemes with vs. without PFC (motivation scenario)",
		Headers: []string{"scheme", "pfc", "pause/ms", "p99 OOD (pkts)", "OOO%",
			"AFCT (ms)", "p99 FCT (ms)", "bg flows done"},
	}
	cells, results := MustRunGrid(Fig3Grid(s, seed))
	for i, c := range cells {
		r := results[i]
		pfcLabel := "on"
		if c.PFCOff {
			pfcLabel = "off"
		}
		t.AddRow(c.Scheme, pfcLabel,
			r.PauseRate, r.OODp99, r.OOOPct, r.AFCT, r.P99, r.Completed)
	}
	t.AddNote("scale=%s: %d paths, %d bg pairs, %d seeds; paper uses 40 paths, 100 pairs",
		s.Name, s.MotivSpines, s.MotivHosts, s.seeds())
	return t
}
