package harness

import (
	"fmt"
	"strings"

	"github.com/rlb-project/rlb/internal/core"
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/topo"
	"github.com/rlb-project/rlb/internal/units"
	"github.com/rlb-project/rlb/internal/workload"
)

// usTime converts integral microseconds to sim.Time.
func usTime(us int) sim.Time { return sim.Time(us) * sim.Microsecond }

// nsTime converts integral nanoseconds to sim.Time.
func nsTime(ns int) sim.Time { return sim.Time(ns) * sim.Nanosecond }

// specLinkDelay returns the spec's per-hop delay (default 2 µs).
func specLinkDelay(s spec.Spec) sim.Time {
	if s.LinkDelayNs > 0 {
		return nsTime(s.LinkDelayNs)
	}
	return 2 * sim.Microsecond
}

// specScale bundles a spec's dimensions as a Scale, the unit-conversion
// point between the integral spec fields and the simulator types. All
// threshold rescaling (PFC/ECN constants following the link rate) flows
// through Scale.ScaleSwitch, so spec-compiled fabrics pause exactly like
// figure-built ones; compile_test pins the equality.
func specScale(s spec.Spec) Scale {
	return Scale{
		Name:         "spec",
		Leaves:       s.Leaves,
		Spines:       s.Spines,
		HostsPerLeaf: s.HostsPerLeaf,
		LinkRate:     units.Bandwidth(s.LinkGbps) * units.Gbps,
		LinkDelay:    specLinkDelay(s),
		Duration:     usTime(s.DurationUs),
		Drain:        usTime(s.DrainUs),
		MaxFlowBytes: s.MaxFlowKB * 1000,
	}
}

// rlbParamsFor returns the custom RLB parameter block the spec's ablation
// knobs call for, or nil when every knob is default (SchemeByName then uses
// core.DefaultParams verbatim, which is behaviorally identical).
func rlbParamsFor(s spec.Spec, linkDelay sim.Time) *core.Params {
	if !s.NoRecirc && !s.NoOrderGuard && s.QthFracPct == 0 && s.DeltaTNs == 0 {
		return nil
	}
	p := core.DefaultParams(linkDelay)
	p.DisableRecirculation = s.NoRecirc
	p.DisableOrderGuard = s.NoOrderGuard
	if s.QthFracPct > 0 {
		p.QthFraction = float64(s.QthFracPct) / 100
	}
	if s.DeltaTNs > 0 {
		p.DeltaT = nsTime(s.DeltaTNs)
	}
	return &p
}

// specFaults renders the spec's fault windows as the topo fault schedule.
// Windows that restore (UpAtUs > DownAtUs) schedule both the break and the
// repair; non-restoring windows schedule the break only.
func specFaults(s spec.Spec, rate units.Bandwidth) []topo.Fault {
	var fs []topo.Fault
	for _, f := range s.Faults {
		if f.Kill() {
			fs = append(fs, topo.Fault{At: usTime(f.DownAtUs), Kind: topo.LinkDown, Leaf: f.Leaf, Spine: f.Spine})
			if f.Restores() {
				fs = append(fs, topo.Fault{At: usTime(f.UpAtUs), Kind: topo.LinkUp, Leaf: f.Leaf, Spine: f.Spine})
			}
		} else {
			fs = append(fs, topo.Fault{At: usTime(f.DownAtUs), Kind: topo.LinkRate, Leaf: f.Leaf, Spine: f.Spine, Rate: rate / units.Bandwidth(f.RateDiv)})
			if f.Restores() {
				fs = append(fs, topo.Fault{At: usTime(f.UpAtUs), Kind: topo.LinkRate, Leaf: f.Leaf, Spine: f.Spine, Rate: rate})
			}
		}
	}
	return fs
}

// Compile translates the canonical experiment spec into the RunConfig the
// harness executes — the single point where spec fields become simulator
// parameters, shared by the figure sweep engine, both CLIs, and the scenario
// fuzzer. It validates against the real registries (scheme, workload, fault
// addresses) and returns errors that list the valid names.
//
// The compiled config always carries Context = s.Params(), so every
// invariant violation is labeled with the full reproducible parameter set in
// one format, no matter which layer launched the run.
func Compile(s spec.Spec) (RunConfig, error) {
	if s.Motiv != nil {
		return compileMotivation(s)
	}
	return compileFabric(s)
}

// MustCompile is Compile for code-authored specs, where an error is a bug.
func MustCompile(s spec.Spec) RunConfig {
	cfg, err := Compile(s)
	if err != nil {
		panic(fmt.Sprintf("harness: compile spec: %v", err))
	}
	return cfg
}

// validateShape checks the fields every kind shares.
func validateShape(s spec.Spec) error {
	if s.LinkGbps < 1 {
		return fmt.Errorf("linkGbps %d: need >= 1", s.LinkGbps)
	}
	if s.DurationUs <= 0 {
		return fmt.Errorf("durationUs %d: need > 0", s.DurationUs)
	}
	if s.DrainUs < 0 || s.MaxFlowKB < 0 || s.LoadPct < 0 {
		return fmt.Errorf("negative drainUs/maxFlowKB/loadPct")
	}
	if s.Telemetry != nil && s.Telemetry.SampleUs < 1 {
		return fmt.Errorf("telemetry sampleUs %d: need >= 1", s.Telemetry.SampleUs)
	}
	return nil
}

// specTelemetry returns the spec's sampling interval (0 = telemetry off).
func specTelemetry(s spec.Spec) sim.Time {
	if s.Telemetry == nil {
		return 0
	}
	return usTime(s.Telemetry.SampleUs)
}

// compileFabric builds the config for the fabric and repeated-incast kinds.
func compileFabric(s spec.Spec) (RunConfig, error) {
	if err := validateShape(s); err != nil {
		return RunConfig{}, err
	}
	if s.Leaves < 1 || s.Spines < 1 || s.HostsPerLeaf < 1 {
		return RunConfig{}, fmt.Errorf("fabric %dx%d/%d: need >= 1 leaves, spines, hosts per leaf",
			s.Leaves, s.Spines, s.HostsPerLeaf)
	}
	sc := specScale(s)
	p := sc.TopoParams()
	if s.AsymPct > 0 {
		p.AsymFraction = float64(s.AsymPct) / 100
		p.AsymRate = sc.LinkRate / 4
	}
	sch, err := SchemeByName(s.Scheme, sc.LinkDelay, rlbParamsFor(s, sc.LinkDelay))
	if err != nil {
		return RunConfig{}, err
	}
	sch.Apply(&p)
	if s.PFCOff {
		p.Switch.PFCEnabled = false
	}
	if s.SelectiveRepeat {
		p.Host.SelectiveRepeat = true
	}
	if s.ProbeUs > 0 {
		p.ProbeInterval = usTime(s.ProbeUs)
	}
	for _, f := range s.Faults {
		if f.Leaf < 0 || f.Leaf >= s.Leaves || f.Spine < 0 || f.Spine >= s.Spines {
			return RunConfig{}, fmt.Errorf("fault on link (l%d,s%d) outside the %dx%d fabric",
				f.Leaf, f.Spine, s.Leaves, s.Spines)
		}
	}

	if s.IncastReps > 0 {
		if s.Workload != "" || s.LoadPct > 0 {
			return RunConfig{}, fmt.Errorf("incastReps runs the dedicated repeated-incast experiment; background workload/load must be empty")
		}
		if s.IncastDegree < 1 || s.IncastKB < 1 {
			return RunConfig{}, fmt.Errorf("incastReps %d needs incastDegree >= 1 and incastKB >= 1", s.IncastReps)
		}
		return compileIncastReps(s, sc, p), nil
	}

	var dist *workload.SizeDist
	if s.Workload != "" {
		dist, err = workload.ByName(s.Workload)
		if err != nil {
			return RunConfig{}, err
		}
	}

	sp := s // captured by the inject hook below
	var inject func(n *topo.Network)
	if sp.LeakPutEvery > 0 || sp.IncastDegree >= 2 {
		inject = func(n *topo.Network) {
			if sp.LeakPutEvery > 0 {
				n.PacketPool().LeakEvery = sp.LeakPutEvery
			}
			if sp.IncastDegree >= 2 {
				var servers []int
				hosts := sp.Leaves * sp.HostsPerLeaf
				for h := 0; h < hosts && len(servers) < sp.IncastDegree; h++ {
					if h != sp.IncastClient {
						servers = append(servers, h)
					}
				}
				n.Eng.At(usTime(sp.IncastAtUs), func() {
					workload.Incast(n.Starter(), sp.IncastClient, servers, sp.IncastKB*1000)
				})
			}
		}
	}

	return RunConfig{
		Topo:             p,
		Workload:         dist,
		Load:             float64(s.LoadPct) / 100,
		MaxFlowBytes:     sc.MaxFlowBytes,
		Duration:         sc.Duration,
		Drain:            sc.Drain,
		Inject:           inject,
		Faults:           specFaults(s, sc.LinkRate),
		StrictInvariants: s.Strict,
		Context:          s.Params(),
		Seed:             s.SimSeed,
		Telemetry:        specTelemetry(s),
	}, nil
}

// compileIncastReps builds the Fig. 8 repeated-incast experiment: IncastReps
// initiations, each a fan-in of IncastDegree randomly drawn servers sending
// IncastKB total to a randomly drawn client. Initiations are spaced so each
// completes before the next begins even with contention slowdown: the
// client's downlink needs totalBytes/rate, and PFC/retransmissions can
// stretch that several-fold. The network is retained so incastMetrics can
// reconstruct the per-initiation groups.
func compileIncastReps(s spec.Spec, sc Scale, p topo.Params) RunConfig {
	totalBytes := s.IncastKB * 1000
	reps := s.IncastReps
	degree := s.IncastDegree
	ideal := units.TxTime(totalBytes, p.LinkRate)
	gap := 4 * ideal
	if gap < sc.Duration/sim.Time(reps) {
		gap = sc.Duration / sim.Time(reps)
	}
	seed := s.SimSeed
	return RunConfig{
		Topo:             p,
		Duration:         sim.Time(reps) * gap,
		Drain:            sc.Drain + 8*ideal,
		Seed:             seed,
		KeepNetwork:      true,
		StrictInvariants: s.Strict,
		Context:          s.Params(),
		Telemetry:        specTelemetry(s),
		Inject: func(n *topo.Network) {
			r := rng.New(seed + 31)
			numHosts := len(n.Hosts)
			for rep := 0; rep < reps; rep++ {
				at := sim.Time(rep) * gap
				n.Eng.At(at, func() {
					client := r.Intn(numHosts)
					per := totalBytes / degree
					if per < 1 {
						per = 1
					}
					used := map[int]bool{client: true}
					for k := 0; k < degree && len(used) < numHosts; k++ {
						srv := r.Intn(numHosts)
						for used[srv] {
							srv = r.Intn(numHosts)
						}
						used[srv] = true
						n.StartFlow(srv, client, per)
					}
				})
			}
		},
	}
}

// incastGap recomputes the initiation spacing compileIncastReps used, so the
// metrics extractor can reconstruct initiation times from the spec alone.
func incastGap(s spec.Spec) sim.Time {
	sc := specScale(s)
	ideal := units.TxTime(s.IncastKB*1000, sc.LinkRate)
	gap := 4 * ideal
	if gap < sc.Duration/sim.Time(s.IncastReps) {
		gap = sc.Duration / sim.Time(s.IncastReps)
	}
	return gap
}

// compileMotivation builds the Fig. 2 scenario config from a motivation-kind
// spec. The topology is derived (2 leaves x Motiv.Spines, host count from
// Motiv.Hosts); the spec's fabric shape fields are ignored. The network is
// retained so specMetrics can separate the background (victim) flows.
func compileMotivation(s spec.Spec) (RunConfig, error) {
	if err := validateShape(s); err != nil {
		return RunConfig{}, err
	}
	m := s.Motiv
	if m.Spines < 1 || m.Hosts < 1 {
		return RunConfig{}, fmt.Errorf("motiv %d paths / %d pairs: need >= 1 of each", m.Spines, m.Hosts)
	}
	if m.SprayPaths < 1 {
		return RunConfig{}, fmt.Errorf("motiv sprayPaths %d: need >= 1", m.SprayPaths)
	}
	sc := specScale(s)
	sch, err := SchemeByName(s.Scheme, sc.LinkDelay, rlbParamsFor(s, sc.LinkDelay))
	if err != nil {
		return RunConfig{}, err
	}
	return motivationConfig(s, sc, sch), nil
}

// schemeNameList is the valid-name suffix for unknown-scheme errors.
func schemeNameList() string { return strings.Join(spec.SchemeNames(), ", ") }
