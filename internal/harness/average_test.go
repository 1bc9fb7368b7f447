package harness

import (
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/spec"
)

// averageTestSpec is a fabric-kind cell on testScale: ECMP under the Web
// Server workload at the given load.
func averageTestSpec(loadPct int) spec.Spec {
	s := testScale.Spec(5)
	s.Scheme = "ecmp"
	s.Workload = "webserver"
	s.LoadPct = loadPct
	return s
}

func TestRunSpecsAveragedShape(t *testing.T) {
	out, err := RunSpecsAveraged([]spec.Spec{averageTestSpec(20), averageTestSpec(40)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("%d results", len(out))
	}
	for i, m := range out {
		if m.Seeds != 2 {
			t.Fatalf("Seeds = %d", m.Seeds)
		}
		if m.Completed <= 0 || m.AFCT <= 0 {
			t.Fatalf("cell %d: empty metrics %+v", i, m)
		}
		// Percentiles must be ordered.
		if !(m.P25 <= m.P50 && m.P50 <= m.P75 && m.P75 <= m.P90 && m.P90 <= m.P99) {
			t.Fatalf("cell %d: percentiles not monotone: %+v", i, m)
		}
	}
	// More load, more flows.
	if out[1].Completed <= out[0].Completed {
		t.Fatalf("flow counts not increasing with load: %v vs %v", out[0].Completed, out[1].Completed)
	}
}

func TestRunSpecsAveragedSingleSeedMatchesRun(t *testing.T) {
	s := averageTestSpec(30)
	res := Run(MustCompile(s))
	if res.Report.Completed == 0 {
		t.Fatal("direct run completed no flows; the comparison is vacuous")
	}
	direct := specMetrics(s, res)
	direct.Seeds = 1
	out, err := RunSpecsAveraged([]spec.Spec{s}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != direct {
		t.Fatalf("single-seed average %+v != direct %+v", out[0], direct)
	}
	if out[0].AFCT != res.Report.AvgFCTms() || out[0].Completed != float64(res.Report.Completed) {
		t.Fatalf("single-seed average %+v disagrees with the direct report", out[0])
	}
}

func TestRunSpecsAveragedClampsSeeds(t *testing.T) {
	out, err := RunSpecsAveraged([]spec.Spec{averageTestSpec(20)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Seeds != 1 {
		t.Fatalf("seeds not clamped: %d", out[0].Seeds)
	}
}

func TestRunSpecsAveragedCompileError(t *testing.T) {
	bad := averageTestSpec(20)
	bad.Scheme = "bogus"
	_, err := RunSpecsAveraged([]spec.Spec{averageTestSpec(20), bad}, 1)
	if err == nil || !strings.Contains(err.Error(), "spec 1") {
		t.Fatalf("want an error naming spec 1, got %v", err)
	}
}

func TestRunSpecsAveragedMotivation(t *testing.T) {
	s := motivTestSpec("presto", 3, 2, 2)
	out, err := RunSpecsAveraged([]spec.Spec{s}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("%d results", len(out))
	}
	if out[0].Completed <= 0 {
		t.Fatalf("no background flows completed: %+v", out[0])
	}
	if out[0].PauseRate <= 0 {
		t.Fatalf("motivation scenario produced no pauses: %+v", out[0])
	}
	// The motivation kind retains its network so the background flows can
	// be split out; metric extraction must release it again.
	r := Run(MustCompile(s))
	if r.Network == nil {
		t.Fatal("motivation run did not retain its network for the background split")
	}
	specMetrics(s, r)
	if r.Network != nil {
		t.Fatal("specMetrics leaked Result.Network")
	}
}

func TestScaleSeedsHelper(t *testing.T) {
	s := Scale{}
	if s.seeds() != 1 {
		t.Fatal("zero Seeds should clamp to 1")
	}
	s.Seeds = 3
	if s.seeds() != 3 {
		t.Fatal("explicit Seeds ignored")
	}
}
