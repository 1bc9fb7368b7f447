package core

import (
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/switchsim"
)

// maxCNMHops bounds hop-by-hop warning propagation (leaf-spine needs one
// relay hop: destination leaf -> spine -> source leaves).
const maxCNMHops = 2

// RelayStats counts CNM propagation at one relay switch.
type RelayStats struct {
	Received uint64
	Relayed  uint64
}

// Relay is RLB's hop-by-hop CNM propagation on a transit (spine) switch.
// The paper records source MACs in the flow table and forwards CNMs to them;
// we keep the equivalent recent-upstream set per egress port (see DESIGN.md,
// substitution 3): a CNM arriving on the port toward the congested switch is
// re-sent out of every ingress port that recently fed that egress port.
type Relay struct {
	sw     *switchsim.Switch
	params Params

	Stats RelayStats
}

// NewRelay builds the CNM relay for one transit switch.
func NewRelay(sw *switchsim.Switch, params Params) *Relay {
	return &Relay{sw: sw, params: params.Normalize(0)}
}

// OnControl is installed as the spine switch's control hook.
func (r *Relay) OnControl(pkt *fabric.Packet, inPort int) bool {
	if pkt.Type != fabric.CNM {
		return false
	}
	r.Stats.Received++
	if pkt.CNMsg.Hops+1 >= maxCNMHops {
		return true
	}
	for _, up := range r.sw.RecentUpstreams(inPort, r.params.CNMHorizon) {
		if up == inPort {
			continue
		}
		relayed := r.sw.Pool.Control(fabric.CNM, r.sw.ID, -1)
		relayed.CNMsg = pkt.CNMsg
		relayed.CNMsg.Hops++
		r.sw.SendControl(relayed, up)
		r.Stats.Relayed++
		r.sw.Stats.CNMRelayed++
	}
	return true
}
