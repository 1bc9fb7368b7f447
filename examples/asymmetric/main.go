// Asymmetric fabric (§4.2): 20% of the leaf-spine links run at a quarter of
// the nominal rate (the paper's 40 -> 10 Gb/s degradation). Congestion-
// oblivious spraying keeps hitting the slow links, PFC pauses them, and
// reordering follows; this example measures a realistic workload with and
// without RLB.
//
//	go run ./examples/asymmetric
package main

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

func main() {
	scale := harness.Scale{
		Name: "example", Leaves: 3, Spines: 4, HostsPerLeaf: 4,
		LinkRate: 10 * units.Gbps, LinkDelay: 2 * sim.Microsecond,
		Duration: 3 * sim.Millisecond, Drain: 12 * sim.Millisecond,
		MaxFlowBytes: 2_000_000,
	}
	fmt.Println("asymmetric 3x4 fabric, cache-follower workload @ 50% load, 4 seeds")
	fmt.Println()
	fmt.Printf("%-11s %9s %9s %9s %8s\n", "scheme", "afct(ms)", "p99(ms)", "ooo(%)", "pauses")
	for _, name := range []string{"drill", "drill+rlb"} {
		var afct, p99, ooo metrics
		var pauses uint64
		for seed := uint64(1); seed <= 4; seed++ {
			sp := scale.Spec(seed * 97)
			sp.AsymPct = 20
			sp.Scheme = name
			sp.Workload = "cachefollower"
			sp.LoadPct = 50
			res := harness.Run(harness.MustCompile(sp))
			afct.add(res.Report.AvgFCTms())
			p99.add(res.Report.TailFCTms())
			ooo.add(100 * res.Report.OOORatio())
			pauses += res.Pauses
		}
		fmt.Printf("%-11s %9.3f %9.3f %9.2f %8d\n", name, afct.mean(), p99.mean(), ooo.mean(), pauses/4)
	}
}

// metrics is a tiny mean accumulator for the example.
type metrics struct {
	sum float64
	n   int
}

func (m *metrics) add(v float64) { m.sum += v; m.n++ }
func (m *metrics) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}
