package main

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/spec"
)

// workload is a batch of simulations of fixed shape. A run executes batches
// back to back (a closed loop: each simulation starts when the previous one
// finishes); inside a simulation, traffic follows its spec in simulated
// time. Batch b of workload seed s draws fresh simulation seeds, so a run
// covers many distinct simulations and its medians and tails do not hang on
// a few of them. README.md records why each workload was chosen.
type workload struct {
	name string
	// fanOut runs a batch through harness.RunAll on at most GOMAXPROCS
	// workers; otherwise the batch runs serially on one goroutine.
	fanOut bool
	// export writes each simulation's telemetry recording as JSONL.
	export bool
	cells  func(seed uint64, batch int) ([]spec.Spec, error)
}

var workloads = []workload{
	{name: "fabric-drill-rlb", cells: fabricDrillRLB},
	{name: "incast-timeline", export: true, cells: incastTimeline},
	{name: "baseline-sweep", fanOut: true, cells: baselineSweep},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// simSeed derives the seed of simulation k of batch b from the workload seed
// (splitmix64 finalizer), so no two simulations of a run share a seed.
func simSeed(seed uint64, b, k int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(b)<<32 + uint64(k) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fabricDrillRLB is the spec harness.ScaleThroughput runs (8x8 leaf-spine,
// 8 hosts per leaf, 10 Gb/s, Web Search at 60% load, drill+rlb, telemetry
// off), four seeds per batch.
func fabricDrillRLB(seed uint64, b int) ([]spec.Spec, error) {
	out := make([]spec.Spec, 4)
	for k := range out {
		s := harness.ScaleTier.Spec(simSeed(seed, b, k))
		s.Scheme = "drill+rlb"
		s.Workload = "websearch"
		s.LoadPct = 60
		out[k] = s
	}
	return out, nil
}

// incastTimeline runs the scale-tier fabric under repeated incast (the
// Fig. 8 experiment kind, no background load) with letflow+rlb, sampling
// telemetry every 20 us, four seeds per batch.
func incastTimeline(seed uint64, b int) ([]spec.Spec, error) {
	out := make([]spec.Spec, 4)
	for k := range out {
		s := harness.ScaleTier.Spec(simSeed(seed, b, k))
		s.Scheme = "letflow+rlb"
		s.IncastReps = 5
		s.IncastDegree = 28
		s.IncastKB = 4000
		s.Telemetry = &spec.TelemetrySpec{SampleUs: 20}
		out[k] = s
	}
	return out, nil
}

// baselineSweep is a bench-scale asymmetric grid: the six base schemes
// (no +rlb) across every workload CDF at two loads, each cell with its own
// simulation seed.
func baselineSweep(seed uint64, b int) ([]spec.Spec, error) {
	base := harness.BenchScale.Spec(0)
	base.AsymPct = 20
	g := spec.Grid{
		Name: "baseline-sweep",
		Base: base,
		Axes: []spec.Axis{
			{Field: "scheme", Strs: spec.BaseSchemes},
			{Field: "workload", Strs: spec.WorkloadNames()},
			{Field: "loadPct", Ints: []int{40, 70}},
		},
	}
	cells, err := g.Cells()
	for k := range cells {
		cells[k].SimSeed = simSeed(seed, b, k)
	}
	return cells, err
}
