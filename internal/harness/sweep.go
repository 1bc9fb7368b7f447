package harness

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/metrics"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/transport"
)

// Metrics is the seed-averaged outcome of one spec cell, covering all three
// experiment kinds. Fabric cells fill the FCT/reordering/pause block;
// motivation cells fill the same block measured over the
// background (victim) flows only; repeated-incast cells fill OOORatio/ICTms
// and the initiation counters. Unused fields stay zero.
type Metrics struct {
	AFCT      float64 // mean FCT, ms
	P25       float64
	P50       float64
	P75       float64
	P90       float64
	P99       float64 // tail FCT, ms
	OOOPct    float64 // out-of-order arrivals, % of received
	OODp99    float64 // 99th percentile out-of-order degree, packets
	PauseRate float64 // PAUSE frames per simulated ms
	Completed float64 // flows completed

	// OOORatio is the incast kind's raw out-of-order ratio (the Fig. 8
	// tables multiply the averaged value by 100 at presentation time).
	OOORatio float64
	// ICTms is the incast kind's mean completion time of the last flow per
	// initiation, ms.
	ICTms float64
	// Initiations/Finished count incast initiations scheduled/fully finished,
	// summed (not averaged) across seeds.
	Initiations int
	Finished    int

	// Violations totals invariant-checker findings across all seeds (not
	// averaged: any nonzero value is a bug).
	Violations int
	Seeds      int
}

// specMetrics extracts one run's raw metric values for the spec that compiled
// it, dispatching on the spec's experiment kind. It releases r.Network after
// extraction so a sweep's worth of retained topologies is not pinned.
func specMetrics(s spec.Spec, r *Result) Metrics {
	defer func() { r.Network = nil }()
	switch {
	case s.Motiv != nil:
		return motivationMetrics(s, r)
	case s.IncastReps > 0:
		return incastMetrics(s, r)
	default:
		rep := r.Report
		return Metrics{
			AFCT:       rep.AvgFCTms(),
			P25:        rep.FCT.Percentile(25),
			P50:        rep.FCT.Percentile(50),
			P75:        rep.FCT.Percentile(75),
			P90:        rep.FCT.Percentile(90),
			P99:        rep.TailFCTms(),
			OOOPct:     100 * rep.OOORatio(),
			OODp99:     rep.OOD.Percentile(99),
			PauseRate:  r.PauseRatePerMs(),
			Completed:  float64(rep.Completed),
			Violations: len(r.Violations),
		}
	}
}

// motivationMetrics measures the background (victim) flows of a motivation
// run — host ids below Motiv.Hosts are the Fig. 2 senders H1..Hn.
func motivationMetrics(s spec.Spec, r *Result) Metrics {
	nBg := s.Motiv.Hosts
	var flows []*transport.Flow
	for _, f := range r.Network.Flows {
		if f.Src < nBg {
			flows = append(flows, f)
		}
	}
	bg := metrics.BuildFlowReport(flows)
	return Metrics{
		AFCT:       bg.AvgFCTms(),
		P99:        bg.TailFCTms(),
		OOOPct:     100 * bg.OOORatio(),
		OODp99:     bg.OOD.Percentile(99),
		PauseRate:  r.PauseRatePerMs(),
		Completed:  float64(bg.Completed),
		Violations: len(r.Violations),
	}
}

// incastMetrics reconstructs the per-initiation flow groups of a
// repeated-incast run. compileIncastReps starts exactly
// min(degree, hosts-1) flows per initiation, in initiation order, with no
// other traffic in the run, so the retained network's flow list slices into
// groups and the initiation times recompute from the spec's gap.
func incastMetrics(s spec.Spec, r *Result) Metrics {
	numHosts := s.Leaves * s.HostsPerLeaf
	flowsPerRep := s.IncastDegree
	if flowsPerRep > numHosts-1 {
		flowsPerRep = numHosts - 1
	}
	gap := incastGap(s)
	flows := r.Network.Flows

	var ict metrics.Digest
	finished := 0
	reps := 0
	for rep := 0; rep*flowsPerRep < len(flows); rep++ {
		reps++
		group := flows[rep*flowsPerRep : minI((rep+1)*flowsPerRep, len(flows))]
		initAt := sim.Time(rep) * gap
		done := true
		var last sim.Time
		for _, f := range group {
			if !f.Done {
				done = false
				break
			}
			if f.FinishAt > last {
				last = f.FinishAt
			}
		}
		if done && len(group) > 0 {
			finished++
			ict.AddTime(last - initAt)
		}
	}
	return Metrics{
		OOORatio:    r.Report.OOORatio(),
		ICTms:       ict.Mean(),
		Initiations: reps,
		Finished:    finished,
		Violations:  len(r.Violations),
	}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// seedStride spaces seed offsets so derived streams stay independent.
const seedStride = 9973

// RunSpecsAveraged compiles every spec at `seeds` seed offsets (SimSeed,
// SimSeed+stride, ...), executes all runs concurrently, and returns
// per-spec averaged Metrics in input order — the generic engine behind every
// figure grid. A compile error on any cell aborts the whole sweep: a sweep
// that silently skipped cells would render a figure with holes.
func RunSpecsAveraged(specs []spec.Spec, seeds int) ([]Metrics, error) {
	if seeds < 1 {
		seeds = 1
	}
	expanded := make([]RunConfig, 0, len(specs)*seeds)
	for i, sp := range specs {
		for k := 0; k < seeds; k++ {
			c := sp.Clone()
			c.SimSeed = sp.SimSeed + uint64(k)*seedStride
			cfg, err := Compile(c)
			if err != nil {
				return nil, fmt.Errorf("harness: spec %d: %w", i, err)
			}
			expanded = append(expanded, cfg)
		}
	}
	results := RunAll(expanded)
	out := make([]Metrics, len(specs))
	for i, sp := range specs {
		var m Metrics
		m.Seeds = seeds
		for k := 0; k < seeds; k++ {
			one := specMetrics(sp, results[i*seeds+k])
			m.AFCT += one.AFCT
			m.P25 += one.P25
			m.P50 += one.P50
			m.P75 += one.P75
			m.P90 += one.P90
			m.P99 += one.P99
			m.OOOPct += one.OOOPct
			m.OODp99 += one.OODp99
			m.PauseRate += one.PauseRate
			m.Completed += one.Completed
			m.OOORatio += one.OOORatio
			m.ICTms += one.ICTms
			m.Initiations += one.Initiations
			m.Finished += one.Finished
			m.Violations += one.Violations
		}
		n := float64(seeds)
		m.AFCT /= n
		m.P25 /= n
		m.P50 /= n
		m.P75 /= n
		m.P90 /= n
		m.P99 /= n
		m.OOOPct /= n
		m.OODp99 /= n
		m.PauseRate /= n
		m.Completed /= n
		m.OOORatio /= n
		m.ICTms /= n
		out[i] = m
	}
	return out, nil
}

// RunGrid expands a grid and runs its cells through RunSpecsAveraged,
// returning the cells alongside their metrics so callers can label rows.
func RunGrid(g spec.Grid) ([]spec.Spec, []Metrics, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, nil, err
	}
	ms, err := RunSpecsAveraged(cells, g.Seeds)
	if err != nil {
		return nil, nil, fmt.Errorf("grid %q: %w", g.Name, err)
	}
	return cells, ms, nil
}

// MustRunGrid is RunGrid for the code-authored figure grids, where an error
// is a bug in the grid definition.
func MustRunGrid(g spec.Grid) ([]spec.Spec, []Metrics) {
	cells, ms, err := RunGrid(g)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return cells, ms
}

// MustRunGridMetrics is MustRunGrid for callers that only need the metrics.
func MustRunGridMetrics(g spec.Grid) []Metrics {
	_, ms := MustRunGrid(g)
	return ms
}
