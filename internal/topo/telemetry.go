package topo

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/telemetry"
)

// AttachTelemetry registers the network's standard probe set on reg: the
// per-switch and per-port congestion signals the paper's timeline figures
// are drawn from, plus host transport and RLB agent state. Registration is
// cold-path (construction time); every probe body is a read-only fold over
// existing counters, so sampling can never perturb the run. Each device is
// one probe group, so a tick makes one call per switch, host, and agent.
//
// Probe naming: `leaf<i>/...` and `spine<i>/...` for switches, with
// per-port series under `/p<j>/`; `host<i>/...` for transports;
// `rlb/leaf<i>/...` for agent counters. Counters (pauses, recircs, drops,
// warnings) are cumulative; gauges (shared, q, paused, inflight, ratebps)
// are instantaneous.
func (n *Network) AttachTelemetry(reg *telemetry.Registry) {
	for i, sw := range n.Leaves {
		attachSwitch(reg, fmt.Sprintf("leaf%d", i), sw)
	}
	for i, sw := range n.Spines {
		attachSwitch(reg, fmt.Sprintf("spine%d", i), sw)
	}
	for _, h := range n.Hosts {
		name := fmt.Sprintf("host%d", h.ID)
		reg.Register(func(dst []int64) {
			snap := h.TelemetrySnapshot()
			dst[0] = snap.ActiveSenders
			dst[1] = snap.Inflight
			dst[2] = snap.Una
			dst[3] = snap.Next
			dst[4] = snap.RateBps
		}, name+"/active", name+"/inflight", name+"/una", name+"/next", name+"/ratebps")
	}
	for l, a := range n.Agents {
		if a == nil {
			continue
		}
		name := fmt.Sprintf("rlb/leaf%d", l)
		reg.Register(func(dst []int64) {
			dst[0] = int64(a.Stats.WarningsRcvd)
			dst[1] = int64(a.Stats.Recircs)
			dst[2] = int64(a.Stats.Reroutes)
		}, name+"/warnings", name+"/recircs", name+"/reroutes")
	}
}

// attachSwitch registers one switch's shared-pool, PFC, and per-port series
// as a single group: shared, pauses, recirced, dropped, then q and paused for
// each port in port order.
func attachSwitch(reg *telemetry.Registry, name string, sw *switchsim.Switch) {
	ports := make([]*fabric.Port, sw.NumPorts())
	names := []string{name + "/shared", name + "/pauses", name + "/recirced", name + "/dropped"}
	for j := range ports {
		ports[j] = sw.Port(j)
		pname := fmt.Sprintf("%s/p%d", name, j)
		names = append(names, pname+"/q", pname+"/paused")
	}
	reg.Register(func(dst []int64) {
		dst[0] = int64(sw.SharedUsed())
		dst[1] = int64(sw.Stats.PauseSent)
		dst[2] = int64(sw.Stats.Recirced)
		dst[3] = int64(sw.Stats.Dropped)
		cols := dst[4:] // q, paused per port
		for j, p := range ports {
			cols[2*j] = int64(p.QueuedBytes(fabric.PrioData))
			var paused int64
			if p.Paused(fabric.PrioData) {
				paused = 1
			}
			cols[2*j+1] = paused
		}
	}, names...)
}
