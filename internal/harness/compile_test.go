package harness

import (
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/units"
)

// tinySpec is a fabric spec small enough to simulate inside a unit test.
func tinySpec() spec.Spec {
	return spec.Spec{
		SimSeed: 5, Leaves: 2, Spines: 2, HostsPerLeaf: 2, LinkGbps: 10,
		Scheme: "drill+rlb", Workload: "websearch", LoadPct: 30,
		MaxFlowKB: 100, DurationUs: 300, DrainUs: 4000,
	}
}

// TestCompileThresholdsMatchScaleMath pins the compiler's unit conversion to
// harness.Scale's threshold rescaling: a spec at each paper-relevant link
// rate must produce bit-identical switch thresholds, link timing, and flow
// cap to the Scale it round-trips from. This is the contract that makes
// spec-compiled fabrics pause exactly like figure-built ones.
func TestCompileThresholdsMatchScaleMath(t *testing.T) {
	for _, gbps := range []int{10, 25, 40} {
		sc := Scale{
			Name: "tt", Leaves: 4, Spines: 6, HostsPerLeaf: 6,
			LinkRate: units.Bandwidth(gbps) * units.Gbps, LinkDelay: 2 * sim.Microsecond,
			Duration: 5 * sim.Millisecond, Drain: 15 * sim.Millisecond,
			MaxFlowBytes: 5 * 1000 * 1000,
		}
		want := sc.TopoParams()

		s := sc.Spec(1)
		s.Scheme = "ecmp"
		s.Workload = "websearch"
		s.LoadPct = 50
		cfg, err := Compile(s)
		if err != nil {
			t.Fatalf("%dG: %v", gbps, err)
		}
		got := cfg.Topo

		if got.Switch.PFCThreshold != want.Switch.PFCThreshold {
			t.Errorf("%dG: PFC threshold %d, Scale math says %d", gbps, got.Switch.PFCThreshold, want.Switch.PFCThreshold)
		}
		if got.Switch.ECNKmin != want.Switch.ECNKmin || got.Switch.ECNKmax != want.Switch.ECNKmax {
			t.Errorf("%dG: ECN (%d,%d), Scale math says (%d,%d)", gbps,
				got.Switch.ECNKmin, got.Switch.ECNKmax, want.Switch.ECNKmin, want.Switch.ECNKmax)
		}
		if got.LinkRate != want.LinkRate || got.LinkDelay != want.LinkDelay {
			t.Errorf("%dG: link %v/%v, want %v/%v", gbps, got.LinkRate, got.LinkDelay, want.LinkRate, want.LinkDelay)
		}
		if cfg.Duration != sc.Duration || cfg.Drain != sc.Drain || cfg.MaxFlowBytes != sc.MaxFlowBytes {
			t.Errorf("%dG: window %v+%v cap %d, want %v+%v cap %d", gbps,
				cfg.Duration, cfg.Drain, cfg.MaxFlowBytes, sc.Duration, sc.Drain, sc.MaxFlowBytes)
		}
	}
}

// TestCompileContextIsSpecParams pins the satellite contract that the
// compiler is the single composer of RunConfig.Context.
func TestCompileContextIsSpecParams(t *testing.T) {
	s := tinySpec()
	s.Faults = []spec.FaultSpec{{Leaf: 0, Spine: 1, DownAtUs: 100, UpAtUs: 200}}
	cfg := MustCompile(s)
	if cfg.Context != s.Params() {
		t.Fatalf("Context drifted from spec.Params:\n%q\nvs\n%q", cfg.Context, s.Params())
	}
	m := DefaultScale.MotivSpec(1, 2, 2)
	m.Scheme = "presto"
	mcfg := MustCompile(m)
	if mcfg.Context != m.Params() {
		t.Fatalf("motivation Context drifted:\n%q\nvs\n%q", mcfg.Context, m.Params())
	}
}

// TestCompileSchemeRegistryAgreement pins spec.SchemeNames to the harness
// scheme registry: every advertised name compiles, and an unknown name's
// error lists the valid ones.
func TestCompileSchemeRegistryAgreement(t *testing.T) {
	for _, name := range spec.SchemeNames() {
		s := tinySpec()
		s.Scheme = name
		if _, err := Compile(s); err != nil {
			t.Errorf("advertised scheme %q does not compile: %v", name, err)
		}
	}
	s := tinySpec()
	s.Scheme = "bogus"
	_, err := Compile(s)
	if err == nil {
		t.Fatal("unknown scheme compiled")
	}
	for _, name := range spec.SchemeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-scheme error does not list %q: %v", name, err)
		}
	}

	s = tinySpec()
	s.Workload = "bogus"
	_, err = Compile(s)
	if err == nil {
		t.Fatal("unknown workload compiled")
	}
	for _, name := range spec.WorkloadNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-workload error does not list %q: %v", name, err)
		}
	}
}

// TestCompileAsymPct pins the §4.2 asymmetric fabric: AsymPct 20 downgrades
// 20% of the leaf-spine links to a quarter of the link rate.
func TestCompileAsymPct(t *testing.T) {
	s := testScale.Spec(1)
	s.Scheme = "ecmp"
	s.AsymPct = 20
	p := MustCompile(s).Topo
	if p.AsymFraction != 0.2 || p.AsymRate != testScale.LinkRate/4 {
		t.Fatalf("asym params wrong: %v %v", p.AsymFraction, p.AsymRate)
	}
}

func TestCompileValidation(t *testing.T) {
	cases := []struct {
		name   string
		mut    func(*spec.Spec)
		errHas string
	}{
		{"zero rate", func(s *spec.Spec) { s.LinkGbps = 0 }, "linkGbps"},
		{"zero duration", func(s *spec.Spec) { s.DurationUs = 0 }, "durationUs"},
		{"negative load", func(s *spec.Spec) { s.LoadPct = -1 }, "negative"},
		{"no leaves", func(s *spec.Spec) { s.Leaves = 0 }, "fabric"},
		{"fault off fabric", func(s *spec.Spec) {
			s.Faults = []spec.FaultSpec{{Leaf: 0, Spine: 9, DownAtUs: 10, UpAtUs: 20}}
		}, "outside the"},
		{"incast reps with workload", func(s *spec.Spec) {
			s.IncastReps, s.IncastDegree, s.IncastKB = 3, 4, 40
		}, "repeated-incast"},
		{"incast reps without degree", func(s *spec.Spec) {
			s.IncastReps, s.Workload, s.LoadPct = 3, "", 0
		}, "incastDegree"},
	}
	for _, c := range cases {
		s := tinySpec()
		c.mut(&s)
		_, err := Compile(s)
		if err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.errHas, err)
		}
	}
	badMotiv := DefaultScale.MotivSpec(1, 0, 2)
	badMotiv.Scheme = "ecmp"
	if _, err := Compile(badMotiv); err == nil || !strings.Contains(err.Error(), "sprayPaths") {
		t.Errorf("zero sprayPaths: %v", err)
	}
}

// TestCompiledCellReplaysBitIdentically is the end-to-end replay acceptance:
// a figure-grid cell, serialized to canonical JSON and decoded back (the
// `figures -dump-spec` → `rlbsim -spec` path), compiles and runs to the same
// determinism fingerprint as the in-memory cell.
func TestCompiledCellReplaysBitIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := spec.Grid{
		Name: "replay",
		Base: tinySpec(),
		Axes: []spec.Axis{
			{Field: "scheme", Strs: []string{"drill+rlb", "presto"}},
			{Field: "loadPct", Ints: []int{20, 40}},
		},
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		data, err := spec.Encode(cell)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := spec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		run := func(s spec.Spec) string {
			cfg := MustCompile(s)
			cfg.KeepNetwork = true
			res := Run(cfg)
			defer func() { res.Network = nil }()
			return Fingerprint(res)
		}
		direct, replayed := run(cell), run(decoded)
		if direct != replayed {
			t.Fatalf("cell %d: replay fingerprint diverged:\n%s\nvs\n%s", i, direct, replayed)
		}
	}
}

// TestCompileFaultSchedule pins the spec→topo fault translation: restored
// kills schedule down+up, unrestored kills schedule the break only, degrade
// windows carry the divided rate.
func TestCompileFaultSchedule(t *testing.T) {
	s := tinySpec()
	s.Faults = []spec.FaultSpec{
		{Leaf: 0, Spine: 0, DownAtUs: 100, UpAtUs: 200},
		{Leaf: 1, Spine: 1, DownAtUs: 50, UpAtUs: 0},
		{Leaf: 0, Spine: 1, DownAtUs: 80, UpAtUs: 120, RateDiv: 4},
	}
	cfg := MustCompile(s)
	if len(cfg.Faults) != 5 {
		t.Fatalf("want 5 scheduled fault events (2 + 1 + 2), got %d", len(cfg.Faults))
	}
	if cfg.Faults[2].At != 50*sim.Microsecond {
		t.Fatalf("unrestored kill scheduled at %v, want 50us", cfg.Faults[2].At)
	}
	wantRate := units.Bandwidth(10) * units.Gbps / 4
	if cfg.Faults[3].Rate != wantRate {
		t.Fatalf("degrade window rate %v, want %v", cfg.Faults[3].Rate, wantRate)
	}
}
