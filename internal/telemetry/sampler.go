package telemetry

import (
	"github.com/rlb-project/rlb/internal/sim"
)

// evTick is the only event code the sampler schedules.
const evTick = 0

// change is one entry of the change log: series took value at the tick
// whose range of the log holds the entry.
type change struct {
	series uint32
	value  int64
}

// Sampler drives a Registry's probes at a fixed simulated-time interval and
// stores what they report as a change log. Each tick the probes fill one
// reused scratch row; the sampler compares it with the last recorded value
// of every series and appends only the (series, value) pairs that moved,
// then writes the tick's end offset into a slice preallocated to capacity.
// Tick 0 diffs against the zero row. Most series hold still between ticks
// (idle queues, clear pause bits, line-rate senders), so the log is a small
// fraction of the dense ticks × series matrix. A tick that records no change
// allocates nothing; the log doubles when full, so a run grows it O(log n)
// times. Ticks past capacity are counted in Dropped and otherwise ignored —
// the run is never perturbed by a short buffer.
type Sampler struct {
	eng      *sim.Engine
	interval sim.Time

	names  []string
	probes []probe

	row  []int64 // scratch row the probes fill each tick
	last []int64 // last recorded value of every series

	times []sim.Time // times[i] = timestamp of tick i
	ends  []int      // ends[i] = end of tick i's entries in log
	log   []change   // every tick's changes, in tick then series order
	nlog  int        // live entries in log; log[nlog:] is spare room
	n     int        // ticks recorded
	drop  int        // ticks discarded after the buffer filled

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
		row:      make([]int64, len(reg.names)),
		last:     make([]int64, len(reg.names)),
		times:    make([]sim.Time, capacity),
		ends:     make([]int, capacity),
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
// tick buffer is full.
func (s *Sampler) sample() {
	if s.n == len(s.times) {
		s.drop++
		return
	}
	s.times[s.n] = s.eng.Now()
	for _, p := range s.probes {
		p.fn(s.row[p.lo:p.hi])
	}
	for j, v := range s.row {
		if v == s.last[j] {
			continue
		}
		s.last[j] = v
		if s.nlog == len(s.log) {
			//simlint:allow(hotpath) the change log doubles when full: O(log changes) growths per run, and a tick that changes nothing never grows it
			s.log = append(s.log, make([]change, len(s.log)+64)...)
		}
		s.log[s.nlog] = change{series: uint32(j), value: v}
		s.nlog++
	}
	s.ends[s.n] = s.nlog
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
// carried on harness results and consumed by the exporters. Values are kept
// as the sampler's change log; Ticks replays them tick by tick as dense rows
// parallel to Names.
type Recording struct {
	Interval sim.Time   // tick spacing
	Names    []string   // series names, registration order
	Times    []sim.Time // tick timestamps, length == number of ticks
	Dropped  int        // ticks lost to capacity

	ends []int    // ends[i] = end of tick i's entries in log
	log  []change // the changes of every tick, in order
}

// Recording snapshots the recorded series. The returned slices alias the
// sampler's buffers truncated to the recorded length; call after Stop.
func (s *Sampler) Recording() *Recording {
	return &Recording{
		Interval: s.interval,
		Names:    s.names,
		Times:    s.times[:s.n],
		Dropped:  s.drop,
		ends:     s.ends[:s.n],
		log:      s.log[:s.nlog],
	}
}

// Ticks returns a cursor positioned before the first tick:
//
//	for c := rec.Ticks(); c.Next(); {
//		use(c.Time(), c.Row())
//	}
func (r *Recording) Ticks() *Cursor {
	return &Cursor{rec: r, i: -1, row: make([]int64, len(r.Names))}
}

// Cursor walks a Recording's ticks in order, rebuilding each tick's dense
// row from the change log. It starts from the zero row, the state tick 0
// was diffed against.
type Cursor struct {
	rec *Recording
	i   int     // current tick
	row []int64 // values at tick i, parallel to Names
}

// Next advances to the next tick and reports whether there is one.
func (c *Cursor) Next() bool {
	if c.i+1 >= len(c.rec.Times) {
		return false
	}
	lo := 0
	if c.i >= 0 {
		lo = c.rec.ends[c.i]
	}
	c.i++
	for _, ch := range c.rec.log[lo:c.rec.ends[c.i]] {
		c.row[ch.series] = ch.value
	}
	return true
}

// Time returns the current tick's timestamp.
func (c *Cursor) Time() sim.Time { return c.rec.Times[c.i] }

// Row returns every series' value at the current tick, parallel to Names.
// The slice is the cursor's own and is overwritten by the next call to
// Next; callers must not modify it.
func (c *Cursor) Row() []int64 { return c.row }
