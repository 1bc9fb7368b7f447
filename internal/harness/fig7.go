package harness

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/spec"
)

// fig7Schemes are the schemes compared in Fig. 7.
var fig7Schemes = []string{"drill", "drill+rlb", "hermes", "hermes+rlb"}

// Fig7 reproduces Fig. 7: average FCT on the asymmetric topology (20% of
// leaf-spine links at quarter rate) for DRILL and Hermes with and without
// RLB, across the four realistic workloads and loads 0.2-0.7.
func Fig7(s Scale, seed uint64) []*Table {
	var tables []*Table
	for _, wl := range spec.WorkloadNames() {
		tables = append(tables, fig7One(s, wl, seed))
	}
	return tables
}

func fig7One(s Scale, wl string, seed uint64) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Fig. 7 — AFCT (ms) on asymmetric topology, %s workload", wl),
		Headers: []string{"scheme"},
	}
	g := Fig7Grid(s, wl, seed)
	loads := g.Axes[1].Ints
	for _, l := range loads {
		t.Headers = append(t.Headers, fmt.Sprintf("load %.1f", float64(l)/100))
	}
	_, results := MustRunGrid(g)
	idx := 0
	for _, name := range fig7Schemes {
		row := []interface{}{name}
		for range loads {
			row = append(row, results[idx].AFCT)
			idx++
		}
		t.AddRow(row...)
	}
	return t
}
