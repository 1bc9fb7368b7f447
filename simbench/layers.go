package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"

	"github.com/rlb-project/rlb/internal/switchsim"
)

// counters are one simulation's exact work counts, read from the network and
// the result after the run. They repeat exactly for a given spec and seed.
type counters struct {
	events, scheduled, deadPops uint64
	frames, poolGets            uint64

	pauses, cnmSent, cnmRelayed, recirced uint64
	peakSharedBytes                       int

	picks, picksWarned, reroutes, agentRecircs, orderStays uint64
	predSamples, predWarnings                              uint64

	flows, completed             int
	sent, retx, rcvd, ooo, dups  uint64
	cnps, rtos                   uint64
	ticks, probes, exportedBytes int
}

func countersOf(r *simRun) counters {
	n, res := r.net, r.res
	c := counters{events: res.Events}
	gets, puts, _ := n.Eng.EventPoolStats()
	c.scheduled = gets
	c.deadPops = puts - res.Events // every pop is released; the live ones also execute
	for _, h := range n.Hosts {
		c.frames += h.NIC().Stats.TxFrames
	}
	for _, sws := range [][]*switchsim.Switch{n.Leaves, n.Spines} {
		for _, sw := range sws {
			for i := 0; i < sw.NumPorts(); i++ {
				c.frames += sw.Port(i).Stats.TxFrames
			}
			st := sw.Stats
			c.pauses += st.PauseSent
			c.cnmSent += st.CNMSent
			c.cnmRelayed += st.CNMRelayed
			c.recirced += st.Recirced
			c.peakSharedBytes = max(c.peakSharedBytes, st.PeakShared)
		}
	}
	c.poolGets = n.PacketPool().Stats().Gets
	a := res.Agents
	c.picks, c.picksWarned, c.reroutes = a.PicksTotal, a.PicksWarned, a.Reroutes
	c.agentRecircs, c.orderStays = a.Recircs, a.OrderStays
	for _, p := range n.Predictors {
		c.predSamples += p.Stats.Samples
		c.predWarnings += p.Stats.Warnings
	}
	for _, f := range n.Flows {
		c.flows++
		if f.Done {
			c.completed++
		}
		c.sent += f.PktsSent
		c.retx += f.Retrans
		c.rcvd += f.PktsRcvd
		c.ooo += f.OOOPkts
		c.dups += f.Dups
		c.cnps += f.CNPsSent
		c.rtos += f.RTOs
	}
	if rec := res.Telemetry; rec != nil {
		c.ticks = len(rec.Times)
		c.probes = len(rec.Names)
	}
	c.exportedBytes = r.exportBytes
	return c
}

func (c *counters) add(o counters) {
	c.events += o.events
	c.scheduled += o.scheduled
	c.deadPops += o.deadPops
	c.frames += o.frames
	c.poolGets += o.poolGets
	c.pauses += o.pauses
	c.cnmSent += o.cnmSent
	c.cnmRelayed += o.cnmRelayed
	c.recirced += o.recirced
	c.peakSharedBytes = max(c.peakSharedBytes, o.peakSharedBytes)
	c.picks += o.picks
	c.picksWarned += o.picksWarned
	c.reroutes += o.reroutes
	c.agentRecircs += o.agentRecircs
	c.orderStays += o.orderStays
	c.predSamples += o.predSamples
	c.predWarnings += o.predWarnings
	c.flows += o.flows
	c.completed += o.completed
	c.sent += o.sent
	c.retx += o.retx
	c.rcvd += o.rcvd
	c.ooo += o.ooo
	c.dups += o.dups
	c.cnps += o.cnps
	c.rtos += o.rtos
	c.ticks += o.ticks
	c.probes = max(c.probes, o.probes)
	c.exportedBytes += o.exportedBytes
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSnap holds the cumulative Go runtime counters the benchmark
// differences around untraced legs.
type runtimeSnap struct {
	allocBytes, allocObjects uint64
	gcCPU, userCPU           float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	return runtimeSnap{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		userCPU:      s[3].Value.Float64(),
	}
}

func (s runtimeSnap) sub(o runtimeSnap) runtimeSnap {
	return runtimeSnap{
		allocBytes:   s.allocBytes - o.allocBytes,
		allocObjects: s.allocObjects - o.allocObjects,
		gcCPU:        s.gcCPU - o.gcCPU,
		userCPU:      s.userCPU - o.userCPU,
	}
}

func (s *runtimeSnap) add(o runtimeSnap) {
	s.allocBytes += o.allocBytes
	s.allocObjects += o.allocObjects
	s.gcCPU += o.gcCPU
	s.userCPU += o.userCPU
}

// reconcileMargin is how far, as a share of the traced run span, the layer
// self times, the untimed remainder and the calibrated tracing cost may
// miss the traced run span before the reconciliation is reported as failed.
const reconcileMargin = 0.10

// layerMetrics computes the per-layer metrics of a traced run. Span times
// come from the traced legs of the timed batches, with the calibrated clock
// cost removed, and are reported per engine event so that they add up to
// ns_per_event. The untimed remainder (sim.self) is the untraced run span of
// the same simulations minus those self times and the telemetry cost.
// Counters come from the warm-up batch; they repeat exactly in every batch.
func (m *measurement) layerMetrics() []metric {
	cc := m.clock
	var self, calls [numSpanKinds]float64
	var pickNs, pickCalls float64 // leaf routes under RLB: the agent's Pick around Choose
	var events uint64
	var tPlain, tTraced, tOn, tOff, tracingNs float64
	var ticks int
	var compile, topoSetup, report, export []float64
	var busy, capacity float64
	var rt runtimeSnap
	sims := 0
	for _, bt := range m.timed() {
		for i, r := range bt.traced.runs {
			p := bt.plain.runs[i]
			if r.failure != "" || p.failure != "" {
				continue
			}
			s, timed := r.tr.selfNs(cc)
			for k := range s {
				n := float64(r.tr.calls[k])
				if spanKind(k) == spanLeafRoute && r.rlb {
					pickNs += s[k]
					pickCalls += n
					continue
				}
				self[k] += s[k]
				calls[k] += n
				tracingNs += n * cc.wrap
			}
			tracingNs += float64(timed) * (cc.timed() - cc.wrap)
			events += r.count.events
			tTraced += float64(r.runNs())
			tPlain += float64(p.runNs())
		}
		for i, r := range bt.off.runs {
			p := bt.plain.runs[i]
			if r.failure != "" || p.failure != "" {
				continue
			}
			tOff += float64(r.runNs())
			tOn += float64(p.runNs())
			ticks += p.count.ticks
		}
		workers := 1
		if m.w.fanOut {
			workers = min(runtime.GOMAXPROCS(0), len(bt.plain.runs))
		}
		capacity += float64(workers) * float64(bt.plain.wall)
		for _, r := range bt.plain.runs {
			if r.failure != "" {
				continue
			}
			compile = append(compile, float64(r.compileNs)/1e3)
			topoSetup = append(topoSetup, float64(r.injectAt.Sub(r.runStart()))/1e6)
			report = append(report, float64(r.reportNs)/1e6)
			if m.w.export {
				export = append(export, float64(r.exportNs)/1e6)
			}
			busy += float64(r.runWall)
			sims++
		}
		rt.add(bt.plain.rt)
	}
	tracingNs += pickCalls * cc.wrap

	var c counters
	var chooseCalls, picks uint64
	for i, r := range m.batches[0].plain.runs {
		c.add(r.count)
		if t := m.batches[0].traced.runs[i]; t.tr != nil {
			n := t.tr.calls[spanChoose]
			chooseCalls += n
			if r.rlb {
				picks += r.count.picks
			} else {
				picks += n // a plain policy calls Choose once per pick
			}
		}
	}

	perEvent := func(ns float64) float64 { return ratio(ns, float64(events)) }
	layers := pickNs
	for _, v := range self {
		layers += v
	}
	telemetryNs := tOn - tOff // the off leg runs the untraced leg's cells
	simSelf := tPlain - layers - telemetryNs
	unattributed := tTraced - tPlain - tracingNs
	unattributedShare := ratio(unattributed, tTraced)
	verdict := "ok"
	if unattributedShare > reconcileMargin || unattributedShare < -reconcileMargin {
		verdict = "OUTSIDE MARGIN"
	}
	allocEvents := 0.0
	for _, bt := range m.timed() {
		for _, r := range bt.plain.runs {
			allocEvents += float64(r.count.events)
		}
	}
	f := func(v uint64) float64 { return float64(v) }

	return []metric{
		{name: "sim.events", value: f(c.events), unit: "count", note: "engine events executed, per batch"},
		{name: "sim.dead_share", value: ratio(f(c.deadPops), f(c.scheduled)), unit: "ratio", note: "cancelled events popped / events scheduled"},
		{name: "sim.self_ns_per_event", value: perEvent(simSelf), unit: "ns/event", note: "untimed remainder: calendar queue, Port.OnEvent, sender pump, DCQCN timers, predictor ticks"},
		{name: "fabric.frames", value: f(c.frames), unit: "count", note: "sum of Port.Stats.TxFrames, per batch"},
		{name: "fabric.pool_gets", value: f(c.poolGets), unit: "count", note: "packet pool gets, per batch"},
		{name: "switchsim.receive_ns", value: perEvent(self[spanSwitchRecv]), unit: "ns/event", note: fmt.Sprintf("Switch.Receive self time (route excluded), %.0f calls in the timed batches", calls[spanSwitchRecv])},
		{name: "switchsim.txdone_ns", value: perEvent(self[spanTxDone]), unit: "ns/event", note: fmt.Sprintf("switch port OnTxDone, %.0f calls in the timed batches", calls[spanTxDone])},
		{name: "switchsim.pause_frames", value: f(c.pauses), unit: "count", note: "PFC PAUSE frames sent, per batch"},
		{name: "switchsim.cnm_sent", value: f(c.cnmSent), unit: "count", note: "Switch.Stats.CNMSent, per batch; the simulator never increments it (see core.predictor_warnings)"},
		{name: "switchsim.cnm_relayed", value: f(c.cnmRelayed), unit: "count", note: "RLB warnings relayed, per batch"},
		{name: "switchsim.recirced", value: f(c.recirced), unit: "count", note: "frames recirculated, per batch"},
		{name: "switchsim.peak_shared_kb", value: float64(c.peakSharedBytes) / 1000, unit: "KB", note: "largest shared-buffer occupancy of any switch"},
		{name: "topo.route_ns", value: perEvent(self[spanSpineRoute] + self[spanLeafRoute]), unit: "ns/event", note: "Router.Route self time: spines, and leaves without RLB"},
		{name: "topo.setup_ms", value: median(topoSetup), unit: "ms", note: "median harness.Run entry to end of Inject (network build)"},
		{name: "lb.choose_ns", value: perEvent(self[spanChoose]), unit: "ns/event", note: fmt.Sprintf("Chooser.Choose, %.0f calls in the timed batches", calls[spanChoose])},
		{name: "lb.choose_calls", value: f(chooseCalls), unit: "count", note: "Choose calls, per batch"},
		{name: "lb.choose_per_pick", value: ratio(f(chooseCalls), f(picks)), unit: "ratio", note: "Choose calls per policy pick (1 = no wasted choice)"},
		{name: "core.pick_ns", value: perEvent(pickNs), unit: "ns/event", note: "leaf Route self time under RLB (agent Pick minus Choose)"},
		{name: "core.picks", value: f(c.picks), unit: "count", note: "agent picks, per batch"},
		{name: "core.picks_warned_share", value: ratio(f(c.picksWarned), f(c.picks)), unit: "ratio", note: "picks whose optimal path carried a warning"},
		{name: "core.reroutes", value: f(c.reroutes), unit: "count", note: "per batch"},
		{name: "core.recircs", value: f(c.agentRecircs), unit: "count", note: "agent recirculation decisions, per batch"},
		{name: "core.order_stays", value: f(c.orderStays), unit: "count", note: "per batch"},
		{name: "core.predictor_samples", value: f(c.predSamples), unit: "count", note: "predictor ticks, per batch"},
		{name: "core.predictor_warnings", value: f(c.predWarnings), unit: "count", note: "CNMs originated by predictors, per batch"},
		{name: "transport.receive_ns", value: perEvent(self[spanHostRecv]), unit: "ns/event", note: fmt.Sprintf("Host.Receive, %.0f calls in the timed batches", calls[spanHostRecv])},
		{name: "transport.retx_share", value: ratio(f(c.retx), f(c.sent)), unit: "ratio", note: "go-back-N retransmissions / frames sent"},
		{name: "transport.ooo_share", value: ratio(f(c.ooo), f(c.rcvd)), unit: "ratio", note: "out-of-order arrivals / arrivals"},
		{name: "transport.dup_share", value: ratio(f(c.dups), f(c.rcvd)), unit: "ratio", note: "duplicate arrivals / arrivals"},
		{name: "transport.cnps", value: f(c.cnps), unit: "count", note: "DCQCN CNPs sent, per batch"},
		{name: "transport.rtos", value: f(c.rtos), unit: "count", note: "retransmission timeouts, per batch"},
		{name: "transport.completed_share", value: ratio(float64(c.completed), float64(c.flows)), unit: "ratio", note: fmt.Sprintf("%d of %d flows", c.completed, c.flows)},
		{name: "spec.compile_us", value: median(compile), unit: "us", note: "median harness.Compile"},
		{name: "metrics.report_ms", value: median(report), unit: "ms", note: "median metrics.BuildFlowReport, re-run on the finished network"},
		{name: "harness.worker_busy_share", value: ratio(busy, capacity), unit: "ratio", note: "time inside harness.Run / (workers x batch wall)"},
		{name: "telemetry.ticks", value: float64(c.ticks), unit: "count", note: "samples recorded, per batch"},
		{name: "telemetry.probes", value: float64(c.probes), unit: "count", note: "probes per simulation"},
		{name: "telemetry.sample_ns_per_tick", value: ratio(telemetryNs, float64(ticks)), unit: "ns", note: "run span with sampling on minus off, per tick"},
		{name: "telemetry.export_ms", value: median(export), unit: "ms", note: "median telemetry.WriteJSONL"},
		{name: "telemetry.export_bytes", value: float64(c.exportedBytes), unit: "bytes", note: "JSONL bytes, per batch"},
		{name: "go.alloc_bytes_per_event", value: ratio(f(rt.allocBytes), allocEvents), unit: "bytes/event", note: "untraced legs"},
		{name: "go.mallocs_per_sim", value: ratio(f(rt.allocObjects), float64(sims)), unit: "count", note: "untraced legs"},
		{name: "go.gc_cpu_share", value: ratio(rt.gcCPU, rt.gcCPU+rt.userCPU), unit: "ratio", note: "GC CPU / (GC + user) CPU, untraced legs"},
		{name: "trace.overhead_share", value: ratio(tTraced-tPlain, tPlain), unit: "ratio", note: "traced / untraced run span - 1"},
		{name: "trace.unattributed_share", value: unattributedShare, unit: "ratio",
			note: fmt.Sprintf("reconciliation %s (margin +/-%.2f): traced span %.1f ms = layers %.1f + sim.self %.1f + telemetry %.1f + tracing %.1f + unattributed %.1f",
				verdict, reconcileMargin, tTraced/1e6, layers/1e6, simSelf/1e6, telemetryNs/1e6, tracingNs/1e6, unattributed/1e6)},
		{name: "trace.clock_ns", value: cc.timed(), unit: "ns", note: fmt.Sprintf("calibrated cost of one timed span (%.1f inside, %.1f outside); untimed wrapper %.1f; 1 in %d top-level spans timed", cc.inside, cc.outside, cc.wrap, samplePeriod)},
	}
}
