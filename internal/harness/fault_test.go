package harness

import (
	"testing"

	"github.com/rlb-project/rlb/internal/invariant"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/topo"
	"github.com/rlb-project/rlb/internal/workload"
)

func TestKillUplinksSchedule(t *testing.T) {
	fs := KillUplinks(2, 3, 10*sim.Millisecond, 20*sim.Millisecond)
	if len(fs) != 6 {
		t.Fatalf("faults = %d, want 3 downs + 3 ups", len(fs))
	}
	downs, ups := 0, 0
	for _, f := range fs {
		if f.Leaf != 2 {
			t.Fatalf("wrong leaf: %+v", f)
		}
		switch f.Kind {
		case topo.LinkDown:
			downs++
			if f.At != 10*sim.Millisecond {
				t.Fatalf("down at %v", f.At)
			}
		case topo.LinkUp:
			ups++
			if f.At != 20*sim.Millisecond {
				t.Fatalf("up at %v", f.At)
			}
		}
	}
	if downs != 3 || ups != 3 {
		t.Fatalf("downs=%d ups=%d", downs, ups)
	}
	if got := KillUplinks(0, 2, sim.Millisecond, 0); len(got) != 2 {
		t.Fatalf("no-restore schedule = %d faults, want 2", len(got))
	}
}

// faultCfg is a Poisson run with the given scheme and fault schedule.
func faultCfg(t *testing.T, scheme string, faults []topo.Fault) RunConfig {
	t.Helper()
	p := testScale.TopoParams()
	mustScheme(scheme, testScale.LinkDelay, nil).Apply(&p)
	return RunConfig{
		Topo: p, Workload: workload.WebServer(), Load: 0.3,
		MaxFlowBytes: testScale.MaxFlowBytes,
		Duration:     testScale.Duration, Drain: testScale.Drain,
		Faults: faults, Seed: 21,
	}
}

func TestLinkDownTriggersRLBReroutes(t *testing.T) {
	// Killing an uplink mid-run must show up as RLB reroutes: the agent is
	// notified and diverts flows the base LB still pins to the dead path.
	quiet := Run(faultCfg(t, "ecmp+rlb", nil))
	faulted := Run(faultCfg(t, "ecmp+rlb",
		KillUplinks(0, 1, testScale.Duration/4, 0)))
	if faulted.Agents.Reroutes <= quiet.Agents.Reroutes {
		t.Fatalf("link-down did not increase reroutes: %d (faulted) vs %d (quiet)",
			faulted.Agents.Reroutes, quiet.Agents.Reroutes)
	}
	if faulted.Report.Completed == 0 {
		t.Fatal("no flows completed under fault with RLB")
	}
}

func TestFlowsCompleteAfterLinkUp(t *testing.T) {
	// Kill one of two uplinks for a window, restore it, and let the drain
	// window absorb the repair: every generated flow must still finish, for an
	// oblivious scheme (go-back-N repairs the wire loss) and for RLB.
	for _, scheme := range []string{"ecmp", "drill+rlb"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			res := Run(faultCfg(t, scheme,
				KillUplinks(0, 1, testScale.Duration/4, testScale.Duration)))
			if res.Report.Flows == 0 {
				t.Fatal("no flows generated")
			}
			if res.Report.Completed != res.Report.Flows {
				t.Fatalf("%d/%d flows completed after link restore",
					res.Report.Completed, res.Report.Flows)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("violations after recovery: %v", res.Violations)
			}
		})
	}
}

func TestECMPBlackholesIntoDeadLink(t *testing.T) {
	// ECMP has no path telemetry: with a dead uplink never restored, flows
	// hashed onto it keep forwarding into the hole. The end-of-run audit must
	// flag the stranded bytes, and the wire must have eaten frames.
	res := Run(faultCfg(t, "ecmp",
		KillUplinks(0, 1, testScale.Duration/4, 0)))
	if res.WireLost == 0 {
		t.Fatal("dead link lost no frames under ECMP")
	}
	if res.Report.Completed == res.Report.Flows {
		t.Fatal("every flow completed despite a permanent blackhole")
	}
	found := false
	for _, v := range res.Violations {
		if v.Rule == invariant.RuleBlackhole {
			found = true
		}
	}
	if !found {
		t.Fatalf("blackhole not detected; violations: %v", res.Violations)
	}
}

func TestDelayAwareSchemeAvoidsDeadLink(t *testing.T) {
	// Hermes reads the poisoned path telemetry and must keep completing flows
	// without RLB's help, losing far less than ECMP does.
	ecmp := Run(faultCfg(t, "ecmp", KillUplinks(0, 1, 0, 0)))
	hermes := Run(faultCfg(t, "hermes", KillUplinks(0, 1, 0, 0)))
	if hermes.Report.Completed != hermes.Report.Flows {
		t.Fatalf("%d/%d hermes flows completed around a day-one dead link",
			hermes.Report.Completed, hermes.Report.Flows)
	}
	if ecmp.Report.Completed == ecmp.Report.Flows {
		t.Fatal("ECMP unaffected by a dead link; scenario too gentle")
	}
}

func TestDegradeUplinksSchedule(t *testing.T) {
	fs := DegradeUplinks(1, 2, sim.Millisecond, testScale.LinkRate/4)
	if len(fs) != 2 {
		t.Fatalf("faults = %d", len(fs))
	}
	for _, f := range fs {
		if f.Kind != topo.LinkRate || f.Rate != testScale.LinkRate/4 || f.Leaf != 1 {
			t.Fatalf("bad fault: %+v", f)
		}
	}
	// And it runs: degrading links mid-run must not break completion.
	res := Run(faultCfg(t, "drill", DegradeUplinks(0, 1, testScale.Duration/2, testScale.LinkRate/4)))
	if res.Report.Completed != res.Report.Flows {
		t.Fatalf("%d/%d flows completed after degrade", res.Report.Completed, res.Report.Flows)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}
