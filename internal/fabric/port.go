package fabric

import (
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

// Device is anything that terminates ports: a switch or a host NIC.
type Device interface {
	// Receive is invoked by the fabric when a frame arrives on in.
	Receive(pkt *Packet, in *Port)
	// DevID returns a unique device identifier (host id or switch id space).
	DevID() int
}

// PortStats counts traffic through a port's egress side.
type PortStats struct {
	TxFrames     uint64
	TxBytes      uint64
	PauseRx      uint64 // PAUSE frames received (this side was throttled)
	PauseTx      uint64 // PAUSE frames sent by the owning device via this port
	PausedFor    sim.Time
	lastPausedAt sim.Time
	// WireLost counts frames that were on the wire (or serializing) when the
	// link was cut and never arrived. Distinct from switch buffer drops: wire
	// loss is a fault-plane event, not an MMU decision, and is therefore not
	// a lossless-invariant violation.
	WireLost uint64
}

// Port is one end of a full-duplex link. Egress queues and pause state belong
// to this end; frames sent here arrive at Peer.Owner after serialization and
// propagation delay.
type Port struct {
	Eng   *sim.Engine
	Owner Device
	// Index is the port number within the owning device.
	Index int
	Peer  *Port

	Rate  units.Bandwidth
	Delay sim.Time

	queues [NumPrio]packetFIFO
	busy   bool
	down   bool

	// wirePooled counts pool-owned frames currently serializing or
	// propagating out of this port (scheduled for delivery but not yet
	// received), for the end-of-run pool-conservation audit.
	wirePooled int

	paused     [NumPrio]bool
	pauseTimer [NumPrio]sim.Timer

	// OnTxDone, if set, fires when a frame finishes serialization out of
	// this port (switches use it to release shared-buffer accounting).
	OnTxDone func(pkt *Packet)

	Stats PortStats
}

// Connect wires a and b into a full-duplex link with the given rate and
// one-way propagation delay on both directions.
func Connect(a, b *Port, rate units.Bandwidth, delay sim.Time) {
	a.Peer, b.Peer = b, a
	a.Rate, b.Rate = rate, rate
	a.Delay, b.Delay = delay, delay
}

// ConnectAsym wires a full-duplex link with distinct per-direction rates
// (a transmits at rateA, b at rateB).
func ConnectAsym(a, b *Port, rateA, rateB units.Bandwidth, delay sim.Time) {
	a.Peer, b.Peer = b, a
	a.Rate, b.Rate = rateA, rateB
	a.Delay, b.Delay = delay, delay
}

// QueuedBytes returns the egress backlog of one priority class.
func (p *Port) QueuedBytes(prio uint8) int { return p.queues[prio].Bytes() }

// QueuedFrames returns the egress frame backlog of one priority class.
func (p *Port) QueuedFrames(prio uint8) int { return p.queues[prio].Len() }

// TotalQueuedBytes returns the backlog across all priorities.
func (p *Port) TotalQueuedBytes() int {
	total := 0
	for i := 0; i < NumPrio; i++ {
		total += p.queues[i].Bytes()
	}
	return total
}

// Paused reports whether a priority class is currently paused by PFC.
func (p *Port) Paused(prio uint8) bool { return p.paused[prio] }

// Down reports whether this end of the link is failed.
func (p *Port) Down() bool { return p.down }

// SetDown fails or restores this transmit direction. While down the egress
// queues stop draining (upstream PFC backpressure takes over); a frame
// already serializing, or propagating on the wire, is lost and counted in
// Stats.WireLost. Restoring the link resumes transmission immediately. Fail
// both ends (see SetLinkDown) to cut a full-duplex link.
func (p *Port) SetDown(down bool) {
	if p.down == down {
		return
	}
	p.down = down
	if !down {
		p.trySend()
	}
}

// SetLinkDown fails or restores both directions of the link this port
// belongs to.
func SetLinkDown(p *Port, down bool) {
	p.SetDown(down)
	if p.Peer != nil {
		p.Peer.SetDown(down)
	}
}

// SetLinkRate changes both directions of a link to a new rate (degradation or
// repair). A frame mid-serialization finishes at the old rate; subsequent
// frames serialize at the new one.
func SetLinkRate(p *Port, rate units.Bandwidth) {
	p.Rate = rate
	if p.Peer != nil {
		p.Peer.Rate = rate
	}
}

// DrainTime estimates how long the current data-class backlog takes to
// serialize at link rate (used by delay-aware load balancers).
func (p *Port) DrainTime() sim.Time {
	return units.TxTime(p.queues[PrioData].Bytes(), p.Rate)
}

// Enqueue places pkt in this port's egress queue and starts transmission if
// the line is idle.
func (p *Port) Enqueue(pkt *Packet) {
	p.queues[pkt.Prio].Push(pkt)
	p.trySend()
}

// SetPaused pauses or resumes a priority class. A pause with dur > 0 arms an
// auto-resume timer (the PFC pause quanta expiring); a RESUME cancels it.
func (p *Port) SetPaused(prio uint8, paused bool, dur sim.Time) {
	p.pauseTimer[prio].Stop()
	p.pauseTimer[prio] = sim.Timer{}
	if paused == p.paused[prio] && !paused {
		return
	}
	if paused {
		if !p.paused[prio] {
			p.Stats.lastPausedAt = p.Eng.Now()
		}
		p.paused[prio] = true
		p.Stats.PauseRx++
		if dur > 0 {
			p.pauseTimer[prio] = p.Eng.ScheduleAfter(dur, p, sim.EventArg{U64: portEvPause + uint64(prio)})
		}
		return
	}
	p.resume(prio)
}

func (p *Port) resume(prio uint8) {
	if !p.paused[prio] {
		return
	}
	p.paused[prio] = false
	p.Stats.PausedFor += p.Eng.Now() - p.Stats.lastPausedAt
	p.trySend()
}

// nextFrame picks the highest-priority sendable frame, honoring pause state.
func (p *Port) nextFrame() *Packet {
	for prio := 0; prio < NumPrio; prio++ {
		if p.paused[prio] {
			continue
		}
		if pkt := p.queues[prio].Pop(); pkt != nil {
			return pkt
		}
	}
	return nil
}

// Event codes for the port's typed events (EventArg.U64). Pause-expiry codes
// occupy [portEvPause, portEvPause+NumPrio).
const (
	portEvTxDone uint64 = iota
	portEvDeliver
	portEvPause
)

// OnEvent implements sim.Handler: serialization-done and wire-delivery events
// carry the frame as the pointer payload; pause expiries encode the priority
// class in the scalar word. Using intern typed events instead of per-frame
// closures keeps the per-hop cost allocation-free.
func (p *Port) OnEvent(arg sim.EventArg) {
	switch arg.U64 {
	case portEvTxDone:
		p.busy = false
		if p.OnTxDone != nil {
			p.OnTxDone(arg.Ptr.(*Packet))
		}
		p.trySend()
	case portEvDeliver:
		pkt := arg.Ptr.(*Packet)
		if pkt.Pooled() {
			p.wirePooled--
		}
		// A frame on the wire when the link went down is lost.
		if p.down {
			p.Stats.WireLost++
			Release(pkt)
			return
		}
		p.Peer.Owner.Receive(pkt, p.Peer)
	default:
		prio := uint8(arg.U64 - portEvPause)
		p.pauseTimer[prio] = sim.Timer{}
		p.resume(prio)
	}
}

// WirePooled returns the number of pool-owned frames currently on the wire
// out of this port (for the pool-conservation audit).
func (p *Port) WirePooled() int { return p.wirePooled }

// QueuedPooledFrames counts pool-owned frames across this port's egress
// queues (for the pool-conservation audit).
func (p *Port) QueuedPooledFrames() int {
	total := 0
	for i := 0; i < NumPrio; i++ {
		total += p.queues[i].pooledFrames()
	}
	return total
}

func (p *Port) trySend() {
	if p.busy || p.down || p.Peer == nil {
		return
	}
	pkt := p.nextFrame()
	if pkt == nil {
		return
	}
	p.busy = true
	tx := units.TxTime(pkt.Size, p.Rate)
	p.Stats.TxFrames++
	p.Stats.TxBytes += uint64(pkt.Size)
	if pkt.Pooled() {
		p.wirePooled++
	}
	p.Eng.ScheduleAfter(tx, p, sim.EventArg{Ptr: pkt, U64: portEvTxDone})
	p.Eng.ScheduleAfter(tx+p.Delay, p, sim.EventArg{Ptr: pkt, U64: portEvDeliver})
}
