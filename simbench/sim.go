package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/metrics"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/telemetry"
	"github.com/rlb-project/rlb/internal/topo"
)

// simRun is one simulation: its spec, the compiled config with the
// benchmark's hooks installed, and what the hooks and the run recorded.
type simRun struct {
	spec spec.Spec
	cfg  harness.RunConfig
	tr   *tracer // nil when the run is not traced

	// Wall-clock marks. buildAt is the first call into the LB factory, the
	// earliest point inside harness.Run the public seams reach; injectAt is
	// when the Inject hook returns (network built, arrivals and faults
	// scheduled); runAt and doneAt bracket harness.Run when the benchmark
	// calls it itself.
	compileNs                        int64
	runAt, buildAt, injectAt, doneAt time.Time

	rlb bool          // RLB is deployed: leaf routes run the agent's Pick
	net *topo.Network // captured by the Inject hook; released after the leg
	res *harness.Result

	// Kept once the leg releases net and res, so that a run's memory does
	// not grow with the number of simulations it has run.
	runWall time.Duration // Result.Wall: harness.Run's own wall time
	model   modelStats

	exportNs    int64
	exportBytes int
	reportNs    int64 // a re-run of metrics.BuildFlowReport, traced mode only

	count   counters // read after a successful run
	fp      string   // harness.Fingerprint of the result
	failure string
}

// prepare compiles s and installs the hooks: the LB factory records when the
// network build reaches it and, when traced, wraps every chooser; the Inject
// hook runs the compiled hook, records the set-up mark and captures the
// network, wrapping its boundaries when traced.
func prepare(s spec.Spec, traced bool) (*simRun, error) {
	r := &simRun{spec: s}
	start := time.Now()
	cfg, err := harness.Compile(s)
	r.compileNs = int64(time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", s.Params(), err)
	}
	if traced {
		r.tr = newTracer()
	}
	factory := cfg.Topo.LB
	if factory == nil {
		factory = lb.NewECMP() // topo.Build's default
	}
	cfg.Topo.LB = func() lb.Chooser {
		if r.buildAt.IsZero() {
			r.buildAt = time.Now()
		}
		c := factory()
		if r.tr != nil {
			return wrapChooser(c, r.tr)
		}
		return c
	}
	inject := cfg.Inject
	cfg.Inject = func(n *topo.Network) {
		if inject != nil {
			inject(n)
		}
		r.injectAt = time.Now()
		r.net = n
		if r.tr != nil {
			r.tr.attach(n)
		}
	}
	r.cfg = cfg
	r.rlb = cfg.Topo.RLB != nil
	return r, nil
}

// runSerial runs the simulation on the calling goroutine, turning a panic
// into a recorded failure.
func (r *simRun) runSerial() {
	defer func() {
		if v := recover(); v != nil {
			r.failure = fmt.Sprintf("panic: %v", v)
		}
	}()
	r.runAt = time.Now()
	r.res = harness.Run(r.cfg)
	r.doneAt = time.Now()
}

// export writes the telemetry recording as JSONL into buf, the way a user
// exports a timeline, and records its cost.
func (r *simRun) export(buf *bytes.Buffer) {
	if r.res == nil || r.res.Telemetry == nil {
		return
	}
	buf.Reset()
	start := time.Now()
	err := telemetry.WriteJSONL(buf, r.res.Telemetry)
	r.exportNs = int64(time.Since(start))
	r.exportBytes = buf.Len()
	if err != nil && r.failure == "" {
		r.failure = fmt.Sprintf("telemetry export: %v", err)
	}
}

// timeReport re-runs the flow report harness.Run built, to time it.
func (r *simRun) timeReport() {
	if r.net == nil {
		return
	}
	start := time.Now()
	metrics.BuildFlowReport(r.net.Flows)
	r.reportNs = int64(time.Since(start))
}

// runStart is when harness.Run began: measured when the benchmark called
// it, otherwise (inside harness.RunAll) the first LB factory call, which
// follows only the engine, host and switch allocation.
func (r *simRun) runStart() time.Time {
	if !r.runAt.IsZero() {
		return r.runAt
	}
	return r.buildAt
}

// setupNs is Compile plus harness.Run up to the end of the Inject hook.
func (r *simRun) setupNs() int64 {
	return r.compileNs + int64(r.injectAt.Sub(r.runStart()))
}

// runNs is the run span: from the end of set-up until harness.Run returned.
func (r *simRun) runNs() int64 {
	if !r.doneAt.IsZero() {
		return int64(r.doneAt.Sub(r.injectAt))
	}
	return int64(r.runWall) - int64(r.injectAt.Sub(r.buildAt))
}

// wallNs is the whole simulation as a user pays for it: compile, run,
// report and, where the workload exports one, the telemetry export.
func (r *simRun) wallNs() int64 {
	if !r.doneAt.IsZero() {
		return r.compileNs + int64(r.doneAt.Sub(r.runAt)) + r.exportNs
	}
	return r.compileNs + int64(r.runWall) + r.exportNs
}

// modelStats are the simulated statistics the model section prints.
type modelStats struct {
	flows, completed int
	fctP50, fctP99   float64 // ms of simulated time
	pauses, events   uint64
}

// finish checks a finished simulation, reads its counters, fingerprint and
// model statistics, and releases the network and the result. timeReport
// first re-times the flow report on the network.
func (r *simRun) finish(timeReport bool) {
	r.check()
	if r.failure != "" {
		r.net, r.res = nil, nil
		return
	}
	if timeReport {
		r.timeReport()
	}
	r.count = countersOf(r)
	r.fp = harness.Fingerprint(r.res)
	rep := r.res.Report
	r.model = modelStats{
		flows: rep.Flows, completed: rep.Completed,
		fctP50: rep.FCT.Percentile(50), fctP99: rep.FCT.Percentile(99),
		pauses: r.res.Pauses, events: r.res.Events,
	}
	r.runWall = r.res.Wall
	r.net, r.res, r.cfg = nil, nil, harness.RunConfig{}
}

// check records the first correctness failure of a finished run: an
// invariant violation, a drop under PFC, or a packet- or event-pool audit
// that does not balance. The pool audits are the ones the harness runs only
// in its strict tier, recomputed here from public counters.
func (r *simRun) check() {
	if r.failure != "" {
		return
	}
	res := r.res
	switch {
	case res == nil || r.net == nil:
		r.failure = "run did not complete"
	case len(res.Violations) > 0:
		r.failure = fmt.Sprintf("%d invariant violation(s), first: %v", len(res.Violations), res.Violations[0])
	case res.Drops > 0 && !r.spec.PFCOff:
		r.failure = fmt.Sprintf("%d drop(s) under PFC", res.Drops)
	default:
		r.failure = auditPools(r.net)
	}
}

// auditPools checks packet and event free-list conservation: every frame
// taken from the packet pool is back in it or still live in a queue, on a
// wire or in a recirculation loop, and every event struct handed out was
// returned or is still queued.
func auditPools(n *topo.Network) string {
	live := 0
	portLive := func(p *fabric.Port) int { return p.QueuedPooledFrames() + p.WirePooled() }
	for _, sws := range [][]*switchsim.Switch{n.Leaves, n.Spines} {
		for _, sw := range sws {
			for i := 0; i < sw.NumPorts(); i++ {
				live += portLive(sw.Port(i))
			}
			live += sw.RecircPooled()
		}
	}
	for _, h := range n.Hosts {
		live += portLive(h.NIC())
	}
	st := n.PacketPool().Stats()
	if st.DoublePuts > 0 || st.Gets != st.Puts+uint64(live) {
		return fmt.Sprintf("packet pool: gets %d != puts %d + live %d (double puts %d)", st.Gets, st.Puts, live, st.DoublePuts)
	}
	gets, puts, queued := n.Eng.EventPoolStats()
	if gets != puts+uint64(queued) {
		return fmt.Sprintf("event pool: gets %d != puts %d + queued %d", gets, puts, queued)
	}
	return ""
}
