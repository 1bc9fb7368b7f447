package harness

import (
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/units"
	"github.com/rlb-project/rlb/internal/workload"
)

// testScale is a deliberately tiny fabric so unit tests stay fast.
var testScale = Scale{
	Name: "test", Leaves: 2, Spines: 2, HostsPerLeaf: 3,
	LinkRate: 10 * units.Gbps, LinkDelay: 2 * sim.Microsecond,
	Duration: sim.Millisecond, Drain: 4 * sim.Millisecond,
	MaxFlowBytes: 500 * 1000,
	MotivSpines:  4, MotivHosts: 4,
}

func TestRunPoissonScenario(t *testing.T) {
	p := testScale.TopoParams()
	MustScheme("ecmp", testScale.LinkDelay, nil).Apply(&p)
	res := Run(RunConfig{
		Topo: p, Workload: workload.WebServer(), Load: 0.4,
		MaxFlowBytes: testScale.MaxFlowBytes,
		Duration:     testScale.Duration, Drain: testScale.Drain, Seed: 1,
	})
	if res.Report.Flows == 0 {
		t.Fatal("no flows generated")
	}
	if res.Report.Completed == 0 {
		t.Fatal("no flows completed")
	}
	if res.Drops != 0 {
		t.Fatalf("%d drops in lossless run", res.Drops)
	}
	if res.SimTime != testScale.Duration+testScale.Drain {
		t.Fatalf("SimTime = %v", res.SimTime)
	}
}

func TestRunAllOrderAndParallel(t *testing.T) {
	var cfgs []RunConfig
	loads := []float64{0.1, 0.2, 0.3, 0.4}
	for _, l := range loads {
		p := testScale.TopoParams()
		MustScheme("ecmp", testScale.LinkDelay, nil).Apply(&p)
		cfgs = append(cfgs, RunConfig{
			Topo: p, Workload: workload.WebServer(), Load: l,
			MaxFlowBytes: testScale.MaxFlowBytes,
			Duration:     testScale.Duration, Drain: testScale.Drain, Seed: 5,
		})
	}
	results := RunAll(cfgs)
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	// Higher load must generate more flows (same seed, same duration).
	for i := 1; i < len(results); i++ {
		if results[i].Report.Flows <= results[i-1].Report.Flows {
			t.Fatalf("flow counts not increasing with load: %d then %d",
				results[i-1].Report.Flows, results[i].Report.Flows)
		}
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"ecmp", "presto", "letflow", "hermes", "drill"} {
		s, err := SchemeByName(name, 2*sim.Microsecond, nil)
		if err != nil || s.RLB != nil {
			t.Errorf("%s: %v rlb=%v", name, err, s.RLB)
		}
		s, err = SchemeByName(name+"+rlb", 2*sim.Microsecond, nil)
		if err != nil || s.RLB == nil {
			t.Errorf("%s+rlb: %v rlb=%v", name, err, s.RLB)
		}
	}
	if _, err := SchemeByName("bogus", 0, nil); err == nil {
		t.Error("bogus scheme accepted")
	}
	if _, err := SchemeByName("bogus+rlb", 0, nil); err == nil {
		t.Error("bogus+rlb scheme accepted")
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"bench", "default", "paper"} {
		if s, ok := ScaleByName(name); !ok || s.Leaves == 0 {
			t.Errorf("ScaleByName(%s) failed", name)
		}
	}
	if _, ok := ScaleByName("nope"); ok {
		t.Error("unknown scale accepted")
	}
}

func TestAsymTopoParams(t *testing.T) {
	p := testScale.AsymTopoParams()
	if p.AsymFraction != 0.2 || p.AsymRate != testScale.LinkRate/4 {
		t.Fatalf("asym params wrong: %v %v", p.AsymFraction, p.AsymRate)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tbl.AddRow("x", 1.23456)
	tbl.AddRow("longer", 2)
	tbl.AddNote("hello %d", 7)
	out := tbl.String()
	for _, want := range []string{"T\n", "a", "bb", "1.235", "longer", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepInts(t *testing.T) {
	got := sweepInts(1, 8, 6)
	if got[0] != 1 || got[len(got)-1] != 8 {
		t.Fatalf("sweep endpoints wrong: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("sweep not increasing: %v", got)
		}
	}
	if one := sweepInts(5, 5, 4); len(one) != 1 || one[0] != 5 {
		t.Fatalf("degenerate sweep: %v", one)
	}
}

func TestMotivationScenarioRuns(t *testing.T) {
	res := RunMotivation(MotivationSpec{
		Scale: testScale, Scheme: motivScheme("presto", testScale),
		PFCEnabled: true, SprayPaths: 2, Bursts: 2, Seed: 3,
	})
	if res.Background.Flows == 0 {
		t.Fatal("no background flows")
	}
	if res.Report.Flows <= res.Background.Flows {
		t.Fatal("burst/congested flows missing from aggregate")
	}
	if res.Pauses == 0 {
		t.Fatal("motivation scenario did not trigger PFC")
	}
}

func TestMotivationPFCOffHasNoPauses(t *testing.T) {
	res := RunMotivation(MotivationSpec{
		Scale: testScale, Scheme: motivScheme("drill", testScale),
		PFCEnabled: false, SprayPaths: 2, Bursts: 2, Seed: 3,
	})
	if res.Pauses != 0 {
		t.Fatalf("%d pauses with PFC disabled", res.Pauses)
	}
}

func TestRLBReducesReorderingUnderPFC(t *testing.T) {
	// The paper's headline claim, at test scale: with PFC on, adding RLB to
	// a PFC-oblivious per-packet scheme (DRILL) must reduce the
	// out-of-order ratio of the victim background flows.
	base := RunMotivation(MotivationSpec{
		Scale: testScale, Scheme: motivScheme("drill", testScale),
		PFCEnabled: true, SprayPaths: 4, Bursts: 3, Seed: 11,
	})
	rlb := defaultRLBFor(testScale)
	withRLB := RunMotivation(MotivationSpec{
		Scale: testScale, Scheme: MustScheme("drill+rlb", testScale.LinkDelay, &rlb),
		PFCEnabled: true, SprayPaths: 4, Bursts: 3, Seed: 11,
	})
	if base.Background.TotalOOO == 0 {
		t.Skip("scenario too gentle at test scale to reorder packets")
	}
	if withRLB.Background.OOORatio() >= base.Background.OOORatio() {
		t.Fatalf("RLB did not reduce reordering: %.4f -> %.4f (warnings=%d recircs=%d)",
			base.Background.OOORatio(), withRLB.Background.OOORatio(),
			withRLB.Warnings, withRLB.Recircs)
	}
}

func TestNormalizedRow(t *testing.T) {
	mk := func(afct float64) *Result {
		r := &Result{Report: nil}
		_ = r
		return nil
	}
	_ = mk
	// normalizedRow is exercised through Fig10 at bench scale; here check
	// the degenerate empty case does not panic.
	row := normalizedRow("x", nil)
	if len(row) != 1 {
		t.Fatalf("row = %v", row)
	}
}

// TestCNMSentMatchesPredictorWarnings checks the switch-level CNM counter
// against the predictors that originate CNMs: every warning a predictor
// raises is one CNM sent by its switch, so the fabric-wide sums agree.
func TestCNMSentMatchesPredictorWarnings(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-tier simulation")
	}
	s := ScaleTier.Spec(7)
	s.Scheme = "drill+rlb"
	s.Workload = "websearch"
	s.LoadPct = 60
	cfg := MustCompile(s)
	cfg.KeepNetwork = true
	n := Run(cfg).Network

	var sent, warnings uint64
	for _, sw := range append(append([]*switchsim.Switch(nil), n.Leaves...), n.Spines...) {
		sent += sw.Stats.CNMSent
	}
	for _, p := range n.Predictors {
		warnings += p.Stats.Warnings
	}
	if warnings == 0 {
		t.Fatal("scale-tier drill+rlb run raised no predictor warnings; the check is vacuous")
	}
	if sent != warnings {
		t.Fatalf("Σ Switch.Stats.CNMSent = %d, Σ PredictorStats.Warnings = %d", sent, warnings)
	}
}
