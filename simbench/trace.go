package main

import (
	"sort"
	"time"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/topo"
)

// spanKind names one wrapped boundary of the simulator.
type spanKind int

const (
	spanSwitchRecv spanKind = iota // fabric.Device.Receive on a switch port
	spanHostRecv                   // fabric.Device.Receive on a host NIC
	spanTxDone                     // fabric.Port.OnTxDone on a switch port
	spanLeafRoute                  // switchsim.Router.Route on a leaf
	spanSpineRoute                 // switchsim.Router.Route on a spine
	spanChoose                     // lb.Chooser.Choose
	numSpanKinds
)

// spanAgg aggregates the timed spans of one kind: how many closed, their
// measured inclusive time, and the measured time and number of their direct
// children. Self time is total minus child.
type spanAgg struct {
	calls    uint64
	total    int64
	child    int64
	children uint64
}

// frame is one open timed span.
type frame struct {
	kind     spanKind
	start    int64
	child    int64
	children uint64
}

// samplePeriod is how many top-level spans pass per timed one on average.
// A clock read costs about 60 ns on the reference machine, as much as a
// short layer, so timing every call would double the run; a timed top-level
// span is timed with all its descendants, so self times stay exact within
// the sampled trees and are scaled up by the sampling ratio of their
// top-level kind.
const samplePeriod = 8

// tracer times the spans of one simulation. A simulation runs on a single
// goroutine, so a tracer is never shared and needs no locking. Spans nest
// at most three deep (Receive, Route, Choose), so the stack is a fixed array.
type tracer struct {
	base   time.Time
	period uint64 // 1 times every span, 0 none (calibration only)
	rnd    uint64 // xorshift state choosing the timed top-level spans
	timing bool   // the open top-level span is timed
	top    spanKind
	depth  int
	stack  [8]frame

	calls    [numSpanKinds]uint64 // every span, timed or not
	topCalls [numSpanKinds]uint64 // spans opened with no span open
	topTimed [numSpanKinds]uint64
	agg      [numSpanKinds][numSpanKinds]spanAgg // [top-level kind][kind], timed spans
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), period: samplePeriod, rnd: 0x9e3779b97f4a7c15}
}

// now reads the monotonic clock only (time.Since on a monotonic base).
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) enter(k spanKind) {
	t.calls[k]++
	if t.depth == 0 {
		t.topCalls[k]++
		t.rnd ^= t.rnd << 13
		t.rnd ^= t.rnd >> 7
		t.rnd ^= t.rnd << 17
		t.timing = t.period != 0 && t.rnd%t.period == 0
		if t.timing {
			t.topTimed[k]++
			t.top = k
		}
	}
	t.depth++
	if t.timing {
		f := &t.stack[t.depth-1]
		f.kind, f.child, f.children = k, 0, 0
		f.start = t.now()
	}
}

func (t *tracer) exit() {
	if !t.timing {
		t.depth--
		return
	}
	end := t.now()
	t.depth--
	f := &t.stack[t.depth]
	d := end - f.start
	a := &t.agg[t.top][f.kind]
	a.calls++
	a.total += d
	a.child += f.child
	a.children += f.children
	if t.depth > 0 {
		p := &t.stack[t.depth-1]
		p.child += d
		p.children++
	} else {
		t.timing = false
	}
}

// selfNs estimates each kind's total self time over every span of the
// simulation: the timed spans' self time, less the calibrated clock cost,
// scaled by the sampling ratio of the top-level kind they ran under. It
// also returns the number of timed spans.
func (t *tracer) selfNs(c clockCost) (self [numSpanKinds]float64, timed uint64) {
	for top := range t.agg {
		if t.topTimed[top] == 0 {
			continue
		}
		scale := float64(t.topCalls[top]) / float64(t.topTimed[top])
		for k, a := range t.agg[top] {
			timed += a.calls
			raw := float64(a.total-a.child) - float64(a.calls)*c.inside - float64(a.children)*c.outside
			self[k] += raw * scale
		}
	}
	return self, timed
}

// attach wraps every boundary of a freshly built network: the owner of each
// switch port and host NIC, each switch port's OnTxDone, and each switch's
// router. The chooser is wrapped earlier, through topo.Params.LB, because
// the leaf agents capture it while the network is built.
func (t *tracer) attach(n *topo.Network) {
	for _, sw := range n.Leaves {
		t.attachSwitch(sw, spanLeafRoute)
	}
	for _, sw := range n.Spines {
		t.attachSwitch(sw, spanSpineRoute)
	}
	for _, h := range n.Hosts {
		nic := h.NIC()
		nic.Owner = &deviceSpan{inner: nic.Owner, tr: t, kind: spanHostRecv}
	}
}

func (t *tracer) attachSwitch(sw *switchsim.Switch, route spanKind) {
	sw.SetRouter(&routerSpan{inner: sw.Router(), tr: t, kind: route})
	for i := 0; i < sw.NumPorts(); i++ {
		p := sw.Port(i)
		p.Owner = &deviceSpan{inner: p.Owner, tr: t, kind: spanSwitchRecv}
		if done := p.OnTxDone; done != nil {
			p.OnTxDone = func(pkt *fabric.Packet) {
				t.enter(spanTxDone)
				done(pkt)
				t.exit()
			}
		}
	}
}

// deviceSpan times fabric.Device.Receive and forwards DevID unchanged.
type deviceSpan struct {
	inner fabric.Device
	tr    *tracer
	kind  spanKind
}

func (d *deviceSpan) Receive(pkt *fabric.Packet, in *fabric.Port) {
	d.tr.enter(d.kind)
	d.inner.Receive(pkt, in)
	d.tr.exit()
}

func (d *deviceSpan) DevID() int { return d.inner.DevID() }

// routerSpan times switchsim.Router.Route.
type routerSpan struct {
	inner switchsim.Router
	tr    *tracer
	kind  spanKind
}

func (r *routerSpan) Route(sw *switchsim.Switch, pkt *fabric.Packet, in int) switchsim.Decision {
	r.tr.enter(r.kind)
	d := r.inner.Route(sw, pkt, in)
	r.tr.exit()
	return d
}

// chooserSpan times lb.Chooser.Choose.
type chooserSpan struct {
	inner lb.Chooser
	tr    *tracer
}

func (c *chooserSpan) Name() string { return c.inner.Name() }

func (c *chooserSpan) Choose(v lb.View, pkt *fabric.Packet, exclude lb.PathSet) int {
	c.tr.enter(spanChoose)
	p := c.inner.Choose(v, pkt, exclude)
	c.tr.exit()
	return p
}

// committerSpan is chooserSpan for choosers that implement lb.Committer. The
// RLB agent type-asserts its chooser for Commit, so the wrapper must offer
// the method exactly when the wrapped chooser does. Commit is forwarded
// untimed; its cost lands in the enclosing route span.
type committerSpan struct {
	chooserSpan
	commit lb.Committer
}

func (c *committerSpan) Commit(pkt *fabric.Packet, path int) { c.commit.Commit(pkt, path) }

// wrapChooser returns c wrapped in a timing span that implements lb.Committer
// exactly when c does.
func wrapChooser(c lb.Chooser, tr *tracer) lb.Chooser {
	s := chooserSpan{inner: c, tr: tr}
	if cm, ok := c.(lb.Committer); ok {
		return &committerSpan{chooserSpan: s, commit: cm}
	}
	return &s
}

// clockCost is the calibrated cost of tracing. inside is the part of a
// timed span's cost its own measurement includes; outside is the rest of
// it, which lands in the enclosing span (or in the untimed remainder for a
// top-level span). wrap is what the wrapper costs an untimed span.
type clockCost struct {
	inside, outside, wrap float64 // ns per span
}

func (c clockCost) timed() float64 { return c.inside + c.outside }

// nopDevice is the calibration stand-in for a wrapped device.
type nopDevice struct{}

func (nopDevice) Receive(*fabric.Packet, *fabric.Port) {}
func (nopDevice) DevID() int                           { return 0 }

// calibrate measures the cost of tracing one span through a real wrapper
// around a no-op device, against calling the no-op device directly: rounds
// of n calls with every span timed, with none timed, and unwrapped,
// reporting median rounds. It runs between simulations, on the benchmark's
// own goroutine.
func calibrate() clockCost {
	const rounds, n = 15, 20000
	loop := func(d fabric.Device) float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			d.Receive(nil, nil)
		}
		return float64(time.Since(start)) / n
	}
	var timed, untimed, bare, inside [rounds]float64
	for r := 0; r < rounds; r++ {
		t := newTracer()
		t.period = 1
		timed[r] = loop(&deviceSpan{inner: nopDevice{}, tr: t, kind: spanHostRecv})
		inside[r] = float64(t.agg[spanHostRecv][spanHostRecv].total) / n
		u := newTracer()
		u.period = 0
		untimed[r] = loop(&deviceSpan{inner: nopDevice{}, tr: u, kind: spanHostRecv})
		bare[r] = loop(nopDevice{})
	}
	med := func(xs [rounds]float64) float64 {
		s := xs[:]
		sort.Float64s(s)
		return s[rounds/2]
	}
	in, b := med(inside), med(bare)
	return clockCost{inside: in, outside: med(timed) - b - in, wrap: med(untimed) - b}
}
