package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/topo"
)

// runCell runs one spec through the benchmark's hooks, serially.
func runCell(t *testing.T, s spec.Spec, traced bool) *simRun {
	t.Helper()
	r, err := prepare(s, traced)
	if err != nil {
		t.Fatal(err)
	}
	r.runSerial()
	r.check()
	if r.failure != "" {
		t.Fatalf("%s: %s", s.Params(), r.failure)
	}
	return r
}

// TestTracingIsObservationOnly runs the first cell of every workload with
// and without tracing and requires bit-identical fingerprints and identical
// work counters: the wrappers observe, they never steer.
func TestTracingIsObservationOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one scale-tier simulation per workload")
	}
	for _, w := range workloads {
		cells, err := w.cells(7, 0)
		if err != nil {
			t.Fatal(err)
		}
		plain := runCell(t, cells[0], false)
		traced := runCell(t, cells[0], true)
		if a, b := harness.Fingerprint(plain.res), harness.Fingerprint(traced.res); a != b {
			t.Errorf("%s: fingerprint changes under tracing:\n plain  %s\n traced %s", w.name, a, b)
		}
		if a, b := countersOf(plain), countersOf(traced); a != b {
			t.Errorf("%s: counters change under tracing:\n plain  %+v\n traced %+v", w.name, a, b)
		}
		if traced.tr.calls[spanSwitchRecv] == 0 || traced.tr.calls[spanChoose] == 0 {
			t.Errorf("%s: traced run recorded no spans: %+v", w.name, traced.tr.calls)
		}
	}
}

// TestFabricDrillRLBIsTheScaleTier pins the fabric-drill-rlb cell to the
// simulation harness.ScaleThroughput runs (BenchmarkScaleFabricDrillRLB).
func TestFabricDrillRLBIsTheScaleTier(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two scale-tier simulations")
	}
	cells, err := fabricDrillRLB(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := runCell(t, cells[0], false)
	want := harness.ScaleThroughput(harness.ScaleTier, "drill+rlb", cells[0].SimSeed)
	if got, w := harness.Fingerprint(r.res), harness.Fingerprint(want); got != w || r.res.Events != want.Events {
		t.Errorf("cell differs from ScaleThroughput:\n cell  %s (%d events)\n scale %s (%d events)", got, r.res.Events, w, want.Events)
	}
}

// recordingCommitter is a chooser that implements lb.Committer.
type recordingCommitter struct{ commits int }

func (*recordingCommitter) Name() string                                   { return "recording" }
func (*recordingCommitter) Choose(lb.View, *fabric.Packet, lb.PathSet) int { return 0 }
func (c *recordingCommitter) Commit(*fabric.Packet, int)                   { c.commits++ }

// TestChooserWrapperForwardsCommitter requires the chooser wrapper to
// implement lb.Committer exactly when the wrapped chooser does, for every
// registered scheme, and to forward Commit and Name.
func TestChooserWrapperForwardsCommitter(t *testing.T) {
	tr := newTracer()
	for _, name := range spec.BaseSchemes {
		sch, err := harness.SchemeByName(name, 2*sim.Microsecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := sch.LB()
		_, want := c.(lb.Committer)
		w := wrapChooser(c, tr)
		if _, got := w.(lb.Committer); got != want {
			t.Errorf("%s: wrapper implements Committer = %v, wrapped = %v", name, got, want)
		}
		if w.Name() != c.Name() {
			t.Errorf("%s: wrapper Name %q, wrapped %q", name, w.Name(), c.Name())
		}
	}
	rc := &recordingCommitter{}
	w := wrapChooser(rc, tr)
	w.(lb.Committer).Commit(nil, 1)
	if rc.commits != 1 {
		t.Errorf("Commit not forwarded: %d calls", rc.commits)
	}
}

// TestOwnerWrapperForwardsDevID wraps a built network and requires every
// wrapped port owner to report its device's id.
func TestOwnerWrapperForwardsDevID(t *testing.T) {
	p := harness.BenchScale.TopoParams()
	n := topo.Build(p)
	want := map[*fabric.Port]int{}
	var ports []*fabric.Port
	for _, h := range n.Hosts {
		ports = append(ports, h.NIC())
	}
	for _, sws := range [][]*switchsim.Switch{n.Leaves, n.Spines} {
		for _, sw := range sws {
			for i := 0; i < sw.NumPorts(); i++ {
				ports = append(ports, sw.Port(i))
			}
		}
	}
	for _, pt := range ports {
		want[pt] = pt.Owner.DevID()
	}
	newTracer().attach(n)
	for _, pt := range ports {
		if _, ok := pt.Owner.(*deviceSpan); !ok {
			t.Fatalf("port owner %T not wrapped", pt.Owner)
		}
		if got := pt.Owner.DevID(); got != want[pt] {
			t.Errorf("wrapped owner DevID %d, want %d", got, want[pt])
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON requires the metrics the command prints
// in each mode to be exactly those BENCHMARK.json declares, with its units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	m := &measurement{w: workloads[0], batches: []batch{{}}}
	check := func(mode string, ms []metric, want []decl) {
		var got []decl
		for _, x := range ms {
			if !x.omit {
				got = append(got, decl{x.name, x.unit})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: command prints %d metrics, BENCHMARK.json declares %d", mode, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: command %+v, BENCHMARK.json %+v", mode, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", m.endToEnd(), b.EndToEnd)
	check("per_layer", m.layerMetrics(), b.PerLayer)
}

func TestTailIsHighestPercentileWithTenAbove(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // descending input
	}
	v, pct := tailOf(xs)
	if v != 29 || pct != 75 {
		t.Errorf("tailOf(0..39) = %v at p%v, want 29 at p75", v, pct)
	}
	if m := median(xs); m != 19.5 {
		t.Errorf("median(0..39) = %v, want 19.5", m)
	}
}

// TestFanOutLegTracesEveryCell runs a few baseline-sweep cells through
// harness.RunAll, untraced and traced, so that the hooks run on the worker
// goroutines (run it with -race), and requires every cell to pass its
// checks with the same fingerprint in both legs.
func TestFanOutLegTracesEveryCell(t *testing.T) {
	cells, err := baselineSweep(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells = cells[:4]
	w, err := workloadByName("baseline-sweep")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	plain, err := runLeg(w, cells, false, true, &buf)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runLeg(w, cells, true, false, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range traced.runs {
		p := plain.runs[i]
		if r.failure != "" || p.failure != "" {
			t.Fatalf("%s: failed: %q / %q", r.spec.Params(), p.failure, r.failure)
		}
		if r.fp != p.fp {
			t.Errorf("%s: fingerprint changes under tracing", r.spec.Params())
		}
		if r.tr.calls[spanChoose] == 0 || p.reportNs == 0 {
			t.Errorf("%s: no Choose spans (%d) or untimed report", r.spec.Params(), r.tr.calls[spanChoose])
		}
	}
}
