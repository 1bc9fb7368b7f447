package harness

import (
	"fmt"
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/switchsim"
)

// TestTelemetryControlPlaneCounters checks that the telemetry series tell a
// run's control-plane story: PFC pauses, recirculations and drops per
// switch, and CNM warnings, recirculations and reroutes per RLB leaf agent.
// The spec is rlbsim's default fabric with conga+rlb at 60% Web Server load,
// sampled every microsecond. Every flow finishes well before the drain
// ends, so the last tick must equal each device's final counters, and PFC
// must both assert and release on some port.
func TestTelemetryControlPlaneCounters(t *testing.T) {
	s := spec.Spec{
		SimSeed: 1, Leaves: 4, Spines: 6, HostsPerLeaf: 6, LinkGbps: 10,
		Scheme: "conga+rlb", Workload: "webserver", LoadPct: 60,
		MaxFlowKB: 5000, DurationUs: 5000, DrainUs: 15000,
		Telemetry: &spec.TelemetrySpec{SampleUs: 1},
	}
	cfg := MustCompile(s)
	cfg.KeepNetwork = true
	res := Run(cfg)
	rec, n := res.Telemetry, res.Network
	if rec == nil || rec.Dropped != 0 {
		t.Fatalf("recording missing or dropped ticks: %+v", rec)
	}
	if res.Report.Completed != res.Report.Flows {
		t.Fatalf("%d of %d flows completed; the final counters may still move", res.Report.Completed, res.Report.Flows)
	}
	if res.Pauses == 0 || res.Agents.WarningsRcvd == 0 {
		t.Fatalf("spec exercises no control plane: %d pauses, %d warnings", res.Pauses, res.Agents.WarningsRcvd)
	}

	col := make(map[string]int, len(rec.Names))
	for j, name := range rec.Names {
		col[name] = j
	}
	// Walk every tick, keeping the last row and counting pause bits that
	// fall from 1 to 0. Every series starts at 0, so each fall closes a
	// 0→1→0 cycle.
	last := make([]int64, len(rec.Names))
	cycles := 0
	for c := rec.Ticks(); c.Next(); {
		row := c.Row()
		for j, name := range rec.Names {
			if strings.HasSuffix(name, "/paused") && last[j] == 1 && row[j] == 0 {
				cycles++
			}
		}
		copy(last, row)
	}
	if cycles == 0 {
		t.Error("no /paused series went 0→1→0")
	}

	check := func(name string, want uint64) {
		t.Helper()
		j, ok := col[name]
		if !ok {
			t.Fatalf("no series %q", name)
		}
		if last[j] != int64(want) {
			t.Errorf("%s: last tick %d, final counter %d", name, last[j], want)
		}
	}
	for prefix, sws := range map[string][]*switchsim.Switch{"leaf": n.Leaves, "spine": n.Spines} {
		for i, sw := range sws {
			name := fmt.Sprintf("%s%d", prefix, i)
			check(name+"/pauses", sw.Stats.PauseSent)
			check(name+"/recirced", sw.Stats.Recirced)
			check(name+"/dropped", sw.Stats.Dropped)
		}
	}
	for l, a := range n.Agents {
		name := fmt.Sprintf("rlb/leaf%d", l)
		check(name+"/warnings", a.Stats.WarningsRcvd)
		check(name+"/recircs", a.Stats.Recircs)
		check(name+"/reroutes", a.Stats.Reroutes)
	}
}
