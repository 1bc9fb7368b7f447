package core

import (
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/flatmap"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/switchsim"
)

// AgentStats counts rerouting-module activity at one leaf switch.
type AgentStats struct {
	WarningsRcvd uint64 // CNMs accepted from the fabric
	PicksTotal   uint64
	PicksWarned  uint64 // picks whose optimal path carried a live warning
	Reroutes     uint64 // packets moved to a suboptimal path
	Recircs      uint64 // recirculation decisions
	Fallbacks    uint64 // all paths warned; optimal used anyway
	OrderStays   uint64 // warned picks kept in place to preserve flow order
	OrderRecircs uint64 // recirculations forced to stay behind a waiting flow-mate
	DivertSticky uint64 // packets that followed an active diversion
	StayCheaper  uint64 // warned picks kept because every detour cost more
}

// Add accumulates o into s field by field, e.g. to total a fabric's agents.
func (s *AgentStats) Add(o AgentStats) {
	s.WarningsRcvd += o.WarningsRcvd
	s.PicksTotal += o.PicksTotal
	s.PicksWarned += o.PicksWarned
	s.Reroutes += o.Reroutes
	s.Recircs += o.Recircs
	s.Fallbacks += o.Fallbacks
	s.OrderStays += o.OrderStays
	s.OrderRecircs += o.OrderRecircs
	s.DivertSticky += o.DivertSticky
	s.StayCheaper += o.StayCheaper
}

// flowMem remembers where a flow's previous packet went, so the agent never
// diverts a packet ahead of predecessors that are already committed to the
// warned path — doing so would cause exactly the overtaking RLB exists to
// prevent (§3.2.2: packets must not "arrive at the receiver later than the
// subsequent packets in the same flow").
type flowMem struct {
	path int
	at   sim.Time
	// noRecircUntil suppresses further recirculation for this flow after a
	// packet exhausted its recirculation budget without the warning
	// clearing: the congestion is not transient, so waiting is wasted
	// pipeline bandwidth (the paper's "avoid the endless loop" rule, made
	// sticky per flow).
	noRecircUntil sim.Time
	// waitUntil is the exit time of this flow's latest recirculating
	// packet. Until then, later packets of the flow must also recirculate —
	// otherwise they would overtake the waiting packet inside the switch.
	waitUntil sim.Time
	// divert pins the flow to divertTo for as long as the base scheme keeps
	// proposing divertFrom. Without this, a warning expiring mid-flowcell
	// would flap the flow back to the base path, reordering against the
	// packets already diverted (stateless bases like Presto cannot follow
	// the diversion on their own).
	divert     bool
	divertFrom int
	divertTo   int
}

// Agent is RLB's rerouting module (§3.2.2) on one leaf switch: it tracks PFC
// warnings per (uplink, destination leaf) and applies Algorithm 1 on top of
// any base load balancer.
type Agent struct {
	Base   lb.Chooser
	Params Params

	// UplinkPortBase is the first fabric-facing port index on the leaf
	// switch (host ports come first); uplink i is port UplinkPortBase+i.
	UplinkPortBase int
	// NumUplinks is the equal-cost path count.
	NumUplinks int
	// DstLeafOf maps a destination host id to its leaf index.
	DstLeafOf func(hostID int) int

	// warned[uplink] holds warning expiry stamps in a dense row: slot 0 is
	// the "any destination" wildcard (the old -1 key), slot d+1 is leaf d.
	// A warning is live iff now < its stamp, so expiry is a compare and no
	// entry is ever deleted (see internal/flatmap). Rows grow lazily to the
	// highest leaf seen — the agent does not know the leaf count up front.
	warned []flatmap.Stamps[sim.Time]

	// faults[uplink] marks link-state faults from the fault plane in the
	// same slot scheme (slot 0 = the whole uplink is dead). A faulted slot
	// is stamped 0; restoring the link clears it back to Never. Unlike CNM
	// warnings, faults do not expire.
	faults []flatmap.Stamps[sim.Time]

	// mem tracks each flow's previous uplink for the order guard, in a flat
	// open-addressed table probed on every pick.
	mem flatmap.U32[flowMem]

	Stats AgentStats
}

// NewAgent builds the rerouting module for one leaf switch.
func NewAgent(base lb.Chooser, params Params, uplinkPortBase, numUplinks int, dstLeafOf func(int) int, linkDelay sim.Time) *Agent {
	a := &Agent{
		Base:           base,
		Params:         params.Normalize(linkDelay),
		UplinkPortBase: uplinkPortBase,
		NumUplinks:     numUplinks,
		DstLeafOf:      dstLeafOf,
		warned:         make([]flatmap.Stamps[sim.Time], numUplinks),
		faults:         make([]flatmap.Stamps[sim.Time], numUplinks),
	}
	return a
}

// SetLinkFault records link-state from the fault plane: uplink i is dead
// toward dstLeaf (-1 = dead entirely) until cleared with down=false. Faulted
// paths behave like permanently warned ones, except the order guard does not
// hold flows on them — predecessors committed to a dead path are stalled or
// lost, so staying put can only blackhole more packets.
func (a *Agent) SetLinkFault(uplink, dstLeaf int, down bool) {
	if uplink < 0 || uplink >= a.NumUplinks {
		return
	}
	if down {
		a.faults[uplink].SetGrow(dstLeaf+1, 0)
	} else {
		a.faults[uplink].Clear(dstLeaf + 1)
	}
}

// Faulted reports whether uplink i is dead toward dstLeaf per the fault
// plane's link-state notifications.
func (a *Agent) Faulted(uplink, dstLeaf int) bool {
	f := &a.faults[uplink]
	return f.AtLeast(0, 0) || f.AtLeast(dstLeaf+1, 0)
}

// OnControl is installed as the leaf switch's control hook: it absorbs CNMs
// arriving on uplink ports and records the warning.
func (a *Agent) OnControl(sw *switchsim.Switch, pkt *fabric.Packet, inPort int) bool {
	if pkt.Type != fabric.CNM {
		return false
	}
	uplink := inPort - a.UplinkPortBase
	if uplink < 0 || uplink >= a.NumUplinks {
		return true // CNM from a host-facing port: ignore
	}
	a.Stats.WarningsRcvd++
	a.warned[uplink].SetGrow(pkt.CNMsg.DstLeaf+1, sw.Eng.Now()+a.Params.WarnExpiry)
	return true
}

// Warned reports whether uplink i currently has a live PFC warning for the
// given destination leaf (warnings with DstLeaf -1 match every destination).
// Link faults count as warnings: a dead path is the limit case of a paused
// one.
func (a *Agent) Warned(uplink, dstLeaf int, now sim.Time) bool {
	if a.Faulted(uplink, dstLeaf) {
		return true
	}
	w := &a.warned[uplink]
	return now < w.Get(0) || now < w.Get(dstLeaf+1)
}

// Pick implements lb.Policy with Algorithm 1 ("Rerouting without Packet
// Reordering"): start from the base scheme's optimal path; while it carries a
// PFC warning, either recirculate (when the suboptimal path is slower by more
// than the recirculation delay trc) or adopt the suboptimal path and retry.
//
// One order guard refines the algorithm: if the flow's previous packet
// recently took the now-warned path, its predecessors are already queued (or
// blocked) there, and moving this packet elsewhere would overtake them —
// exactly the reordering RLB exists to prevent. Such packets stay put;
// Algorithm 1 applies at rerouting opportunities (new flows, flowlet/cell
// boundaries, per-packet schemes that moved anyway, or once the path has had
// time to drain).
func (a *Agent) Pick(v lb.View, pkt *fabric.Packet) lb.Decision {
	a.Stats.PicksTotal++
	now := v.Now()
	// Wait chain: a flow-mate is still inside the recirculation loop; going
	// straight to an egress queue now would overtake it.
	// Forced waits all share the same pipeline delay, so they stay FIFO
	// among themselves and need not extend the wait window.
	if m, _ := a.mem.Get(pkt.FlowID); now < m.waitUntil && !a.Params.DisableRecirculation && pkt.Recirc < a.Params.MaxRecirc {
		a.Stats.OrderRecircs++
		return lb.Decision{Recirculate: true}
	}
	dstLeaf := a.DstLeafOf(pkt.DstID)
	var exclude lb.PathSet
	p := a.Base.Choose(v, pkt, exclude) // line 2: initial optimal path

	// Follow or retire an active diversion. It retires when the base scheme
	// moves the flow on its own (new flowcell/flowlet), or when the warning
	// cleared and the diverted in-flight packets have had time to deliver —
	// switching back earlier would overtake them.
	if m := a.mem.Ptr(pkt.FlowID); m != nil && m.divert {
		switch {
		case p != m.divertFrom:
			m.divert = false
		case a.Faulted(m.divertTo, dstLeaf):
			// The diverted-to path itself died; re-run Algorithm 1.
			m.divert = false
		case !a.Warned(p, a.DstLeafOf(pkt.DstID), now) && now-m.at > v.PathDelay(m.divertTo, pkt):
			m.divert = false
		default:
			a.Stats.DivertSticky++
			// remember may rehash the table and invalidate m; copy first.
			to := m.divertTo
			a.remember(pkt.FlowID, to, now)
			return a.commit(pkt, to)
		}
	}

	if !a.Warned(p, dstLeaf, now) { // line 3 fast path
		a.remember(pkt.FlowID, p, now)
		return a.commit(pkt, p) // line 10
	}
	a.Stats.PicksWarned++

	// Order guard: predecessors committed to p and possibly still in flight.
	// It does not apply to faulted paths: predecessors there are stalled or
	// lost on the wire, and staying would only feed the blackhole.
	if mem := a.mem.Ptr(pkt.FlowID); mem != nil && !a.Params.DisableOrderGuard &&
		!a.Faulted(p, dstLeaf) &&
		mem.path == p && now-mem.at <= v.PathDelay(p, pkt) {
		a.Stats.OrderStays++
		a.remember(pkt.FlowID, p, now)
		return a.commit(pkt, p)
	}

	// Recirculating means waiting for the *initial optimal* path to clear
	// its warning. That only pays when the flow is invested in that path
	// (its packets have been using it) or the flow is brand new; when the
	// base scheme is moving the flow anyway (Presto cell / LetFlow flowlet
	// boundaries, DRILL's per-packet churn), a detour costs nothing extra
	// and waiting would only burn pipeline passes.
	mem, hasMem := a.mem.Get(pkt.FlowID)
	recircOK := !a.Params.DisableRecirculation && now >= mem.noRecircUntil &&
		(!hasMem || mem.path == p || pkt.Recirc > 0)
	if pkt.Recirc >= a.Params.MaxRecirc {
		// Budget exhausted without the warning clearing: not a transient.
		recircOK = false
		a.mem.Upsert(pkt.FlowID).noRecircUntil = now + a.Params.WarnExpiry
	}
	initial := p
	for iter := 0; iter < a.NumUplinks; iter++ {
		if !a.Warned(p, dstLeaf, now) {
			a.Stats.Reroutes++
			a.divertTo(pkt.FlowID, initial, p, now)
			return a.commit(pkt, p) // line 10
		}
		exclude = exclude.With(p)
		if exclude.Count() >= a.NumUplinks {
			break // every path warned
		}
		ps := a.Base.Choose(v, pkt, exclude) // line 4: suboptimal path
		if ps == p || exclude.Has(ps) {
			break
		}
		// Line 5: is waiting on this switch cheaper than the detour? The
		// paper compares the delay gap against one recirculation pass (trc);
		// since a warning usually outlives a single pass, we charge the
		// whole remaining wait budget, which avoids paying MaxRecirc passes
		// only to take the detour anyway (see DESIGN.md).
		gap := v.PathDelay(ps, pkt) - v.PathDelay(p, pkt)
		wait := a.Params.Trc * sim.Time(a.Params.MaxRecirc-pkt.Recirc)
		if recircOK && pkt.Recirc < a.Params.MaxRecirc && gap > wait {
			a.Stats.Recircs++
			a.recircNoted(pkt.FlowID, now)
			return lb.Decision{Recirculate: true} // line 6
		}
		if gap > sim.Time(a.Params.WarnExpiry) {
			// The detour costs more than the blocking the warning predicts
			// (e.g. the only alternative is a degraded link): ride it out.
			a.Stats.StayCheaper++
			a.remember(pkt.FlowID, p, now)
			return a.commit(pkt, p)
		}
		p = ps // line 8: adopt the suboptimal path, re-check its warning
	}
	a.Stats.Fallbacks++
	a.divertTo(pkt.FlowID, initial, p, now)
	return a.commit(pkt, p)
}

// commit finalizes a forwarding decision, informing stateful base schemes
// (lb.Committer) where the packet actually went.
func (a *Agent) commit(pkt *fabric.Packet, path int) lb.Decision {
	if c, ok := a.Base.(lb.Committer); ok {
		c.Commit(pkt, path)
	}
	return lb.Decision{Uplink: path}
}

func (a *Agent) remember(flow uint32, path int, now sim.Time) {
	m := a.mem.Upsert(flow)
	m.path, m.at = path, now
}

// recircNoted records that a packet of flow is in the recirculation loop
// until now+Trc, so later flow-mates know to wait behind it.
func (a *Agent) recircNoted(flow uint32, now sim.Time) {
	m := a.mem.Upsert(flow)
	if exit := now + a.Params.Trc; exit > m.waitUntil {
		m.waitUntil = exit
	}
}

// divertTo records the Algorithm 1 outcome; if it moved the flow off the
// base scheme's choice, the diversion is pinned until the base moves on.
func (a *Agent) divertTo(flow uint32, from, to int, now sim.Time) {
	m := a.mem.Upsert(flow)
	m.path, m.at = to, now
	if from != to {
		m.divert, m.divertFrom, m.divertTo = true, from, to
	}
}

var _ lb.Policy = (*Agent)(nil)
