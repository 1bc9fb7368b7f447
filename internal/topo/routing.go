package topo

import (
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/flatmap"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/switchsim"
)

// leafView implements lb.View for one leaf switch. PathDelay inspects the
// local uplink queue and the spine's queue toward the destination leaf — an
// idealized-freshness path telemetry (see DESIGN.md substitution 2). Queue
// drain times automatically reflect asymmetric link rates.
type leafView struct {
	net  *Network
	leaf int
}

func (v *leafView) NumPaths() int { return v.net.P.Spines }

// Dead-path telemetry poisoning: a failed link reads as an effectively
// infinite queue/delay, so queue- and delay-aware schemes (DRILL, Hermes,
// CONGA) steer around failures on their own, while oblivious schemes (ECMP,
// Presto, LetFlow) keep forwarding into the hole — the asymmetry the fault
// plane exists to expose.
const (
	deadPathBytes = 1 << 40
	deadPathDelay = sim.Time(1000 * sim.Second)
)

func (v *leafView) QueueBytes(i int) int {
	if !v.net.LinkIsUp(v.leaf, i) {
		return deadPathBytes
	}
	return v.net.Leaves[v.leaf].Port(v.net.P.HostsPerLeaf + i).QueuedBytes(fabric.PrioData)
}

func (v *leafView) PathDelay(i int, pkt *fabric.Packet) sim.Time {
	dstLeaf := v.net.LeafOf(pkt.DstID)
	if !v.net.LinkIsUp(v.leaf, i) ||
		(dstLeaf >= 0 && dstLeaf < v.net.P.Leaves && dstLeaf != v.leaf && !v.net.LinkIsUp(dstLeaf, i)) {
		return deadPathDelay
	}
	if v.net.probes != nil {
		// Probe telemetry: an in-band, EWMA'd, slightly stale estimate of
		// the uplink leg, plus the propagation floor of the spine leg.
		return v.net.probes[v.leaf].delay(i) + v.net.P.LinkDelay
	}
	up := v.net.Leaves[v.leaf].Port(v.net.P.HostsPerLeaf + i)
	d := up.DrainTime() + 2*v.net.P.LinkDelay
	if dstLeaf >= 0 && dstLeaf < v.net.P.Leaves && dstLeaf != v.leaf {
		d += v.net.Spines[i].Port(dstLeaf).DrainTime()
	}
	return d
}

func (v *leafView) Now() sim.Time { return v.net.Eng.Now() }

func (v *leafView) Rng() *rng.Source { return v.net.Leaves[v.leaf].Rng }

// leafRouter forwards frames at a leaf: local hosts directly, remote leaves
// via the LB policy (data) or a flow hash (control). The spray table
// overrides the policy for designated flows (the paper's multi-path
// congested-flow knob).
type leafRouter struct {
	net    *Network
	leaf   int
	view   *leafView
	policy lb.Policy
	trc    sim.Time
	spray  flatmap.U32[int]
}

func (r *leafRouter) Route(sw *switchsim.Switch, pkt *fabric.Packet, in int) switchsim.Decision {
	p := &r.net.P
	if pkt.Type == fabric.Probe {
		// A reflected probe returning home: ingest and consume.
		if r.net.probes != nil && int(pkt.FlowID) == r.leaf {
			r.net.probes[r.leaf].onReturn(pkt)
		}
		return switchsim.Decision{Drop: true}
	}
	dstLeaf := r.net.LeafOf(pkt.DstID)
	if dstLeaf == r.leaf {
		return switchsim.Decision{Out: pkt.DstID % p.HostsPerLeaf}
	}
	if pkt.Type != fabric.Data {
		// Control frames take a deterministic hashed uplink.
		return switchsim.Decision{Out: p.HostsPerLeaf + int(pkt.FlowID)%p.Spines}
	}
	if k, ok := r.spray.Get(pkt.FlowID); ok && k > 0 {
		if k > p.Spines {
			k = p.Spines
		}
		return switchsim.Decision{Out: p.HostsPerLeaf + int(pkt.Seq)%k}
	}
	d := r.policy.Pick(r.view, pkt)
	if d.Recirculate {
		return switchsim.Decision{Recirculate: true, RecircDelay: r.trc}
	}
	return switchsim.Decision{Out: p.HostsPerLeaf + d.Uplink}
}

// spineRouter forwards every frame to its destination leaf's port.
type spineRouter struct{ net *Network }

func (r spineRouter) Route(sw *switchsim.Switch, pkt *fabric.Packet, in int) switchsim.Decision {
	if pkt.Type == fabric.Probe {
		// Reflect probes straight back to the leaf that sent them.
		return switchsim.Decision{Out: in}
	}
	return switchsim.Decision{Out: r.net.LeafOf(pkt.DstID)}
}
