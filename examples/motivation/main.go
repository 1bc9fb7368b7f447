// Motivation (Fig. 2 / §2.2): two leaf switches joined by many equal-cost
// paths; background flows share the fabric with line-rate bursts and a long
// congested flow. With PFC enabled the bursts pause the parallel paths, and
// PFC-oblivious load balancers reorder packets badly; the same scenario with
// PFC disabled (lossy) shows how much of the damage PFC itself causes.
//
//	go run ./examples/motivation
package main

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/units"
)

func main() {
	scale := harness.Scale{
		Name: "example", LinkRate: 10 * units.Gbps, LinkDelay: 2 * sim.Microsecond,
		Duration: 3 * sim.Millisecond, Drain: 9 * sim.Millisecond,
		MaxFlowBytes: 2_000_000,
		MotivSpines:  8, MotivHosts: 10,
	}
	// Every scheme with PFC on and off: 5 sprayed paths, 2 burst waves.
	cells, results := harness.MustRunGrid(spec.Grid{
		Name: "motivation",
		Base: scale.MotivSpec(42, 5, 2),
		Axes: []spec.Axis{
			{Field: "scheme", Strs: []string{"presto", "letflow", "hermes", "drill"}},
			{Field: "pfcOff", Ints: []int{0, 1}},
		},
	})
	fmt.Println("Fig. 2 scenario: 8 parallel paths, 10 background pairs, bursts + 1 elephant")
	fmt.Println()
	fmt.Printf("%-8s %-4s %10s %10s %10s %10s\n",
		"scheme", "pfc", "pauses/ms", "p99 OOD", "afct(ms)", "p99(ms)")
	for i, c := range cells {
		m := results[i]
		onOff := "on"
		if c.PFCOff {
			onOff = "off"
		}
		fmt.Printf("%-8s %-4s %10.1f %10.0f %10.3f %10.3f\n",
			c.Scheme, onOff, m.PauseRate, m.OODp99, m.AFCT, m.P99)
	}
	fmt.Println("\nPFC pausing inflates out-of-order degree and tail FCT for every")
	fmt.Println("PFC-oblivious scheme — the problem RLB's prediction removes.")
}
