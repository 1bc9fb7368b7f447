package telemetry

import (
	"github.com/rlb-project/rlb/internal/sim"
)

// evTick is the only event code the sampler schedules.
const evTick = 0

// Sampler drives a Registry's probes at a fixed simulated-time interval.
// All storage is one tick-major buffer allocated at construction; once Start
// has run, the per-tick path (OnEvent → sample → rearm) hands each probe
// group its slice of the next row and reuses the engine's pooled event
// structs, so the steady state allocates nothing. Ticks past capacity are
// counted in Dropped and otherwise ignored — the run is never perturbed by a
// short buffer.
type Sampler struct {
	eng      *sim.Engine
	interval sim.Time

	names  []string
	probes []probe

	times []sim.Time
	rows  []int64 // rows[i*len(names)+j] = series j at tick i
	n     int     // ticks recorded
	drop  int     // ticks discarded after the buffer filled

	running bool
	timer   sim.Timer
}

// NewSampler builds a sampler over the registry's current probe set with
// room for capacity ticks. The probe list is snapshotted: probes registered
// after this call are not sampled. Interval must be positive and capacity
// non-negative.
func NewSampler(eng *sim.Engine, reg *Registry, interval sim.Time, capacity int) *Sampler {
	if interval <= 0 {
		panic("telemetry: sample interval must be positive")
	}
	if capacity < 0 {
		panic("telemetry: negative capacity")
	}
	return &Sampler{
		eng:      eng,
		interval: interval,
		names:    reg.Names(),
		probes:   append([]probe(nil), reg.probes...),
		times:    make([]sim.Time, capacity),
		rows:     make([]int64, capacity*len(reg.names)),
	}
}

// Start records the first tick at the current virtual time and arms the
// periodic timer. Starting an already-running sampler panics.
func (s *Sampler) Start() {
	if s.running {
		panic("telemetry: sampler already started")
	}
	s.running = true
	s.sample()
	s.arm()
}

// Stop halts sampling. Recorded ticks stay available via Recording. Safe to
// call on a never-started or already-stopped sampler.
func (s *Sampler) Stop() {
	s.running = false
	s.timer.Stop()
	s.timer = sim.Timer{}
}

// OnEvent is the periodic tick: record one sample and rearm.
func (s *Sampler) OnEvent(arg sim.EventArg) {
	if !s.running {
		return
	}
	s.sample()
	s.arm()
}

// sample records one tick, or counts it as dropped when the preallocated
// buffer is full.
func (s *Sampler) sample() {
	if s.n == len(s.times) {
		s.drop++
		return
	}
	s.times[s.n] = s.eng.Now()
	w := len(s.names)
	row := s.rows[s.n*w : (s.n+1)*w]
	for _, p := range s.probes {
		p.fn(row[p.lo:p.hi])
	}
	s.n++
}

// arm schedules the next tick.
func (s *Sampler) arm() {
	s.timer = s.eng.ScheduleAfter(s.interval, s, sim.EventArg{U64: evTick})
}

// Samples returns the number of ticks recorded so far.
func (s *Sampler) Samples() int { return s.n }

// Dropped returns the number of ticks discarded because capacity was reached.
func (s *Sampler) Dropped() int { return s.drop }

// Recording is an immutable view of a sampler's recorded series, the form
// carried on harness results and consumed by the exporters. Storage is
// tick-major: the values of tick i are the contiguous row
// Rows[i*len(Names) : (i+1)*len(Names)], parallel to Names.
type Recording struct {
	Interval sim.Time   // tick spacing
	Names    []string   // series names, registration order
	Times    []sim.Time // tick timestamps, length == number of ticks
	Rows     []int64    // len(Times) rows of len(Names) values each
	Dropped  int        // ticks lost to capacity
}

// At returns series j at tick i.
func (r *Recording) At(j, i int) int64 { return r.Rows[i*len(r.Names)+j] }

// row returns the values of tick i, parallel to Names.
func (r *Recording) row(i int) []int64 {
	w := len(r.Names)
	return r.Rows[i*w : (i+1)*w]
}

// Recording snapshots the recorded series. The returned slices alias the
// sampler's buffers truncated to the recorded length; call after Stop.
func (s *Sampler) Recording() *Recording {
	return &Recording{
		Interval: s.interval,
		Names:    s.names,
		Times:    s.times[:s.n],
		Rows:     s.rows[:s.n*len(s.names)],
		Dropped:  s.drop,
	}
}
