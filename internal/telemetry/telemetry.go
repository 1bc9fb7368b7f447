// Package telemetry is the simulator's run-time observability layer: named
// probes sampled periodically on the simulation clock into a change log that
// keeps only the values that moved since the previous tick, replayed tick by
// tick through a cursor and exportable as JSONL or CSV.
//
// The paper's evaluation is built on time-series evidence — queue build-up
// and PFC pause propagation over time (Figs. 1–2), OOD degree, throughput
// under asymmetry — but end-of-run aggregates cannot show *when* a queue
// filled or a pause front crossed the fabric. Telemetry closes that gap
// without touching the determinism contract:
//
//   - Sampling is observation-only. A probe is a read-only func(dst []int64)
//     that fills a contiguous run of columns (one group per device, so one
//     fold over a device's state yields all of its series); the Sampler
//     never mutates simulator state, touches an RNG stream, or holds a
//     packet. Sampler events consume engine sequence numbers, but sequence
//     assignment is monotone in scheduling order, so the relative order of
//     all non-sampler events — and therefore every golden figure and
//     determinism fingerprint — is bit-identical with sampling on or off
//     (harness tests pin this).
//   - A tick that records no change is allocation-free. Each tick hands
//     every probe its slice of one reused scratch row, diffs the row against
//     the last recorded values, and appends only the changed (series, value)
//     pairs to the log; tick timestamps and log offsets go into slices sized
//     once at construction, and the rearm reuses the engine's pooled event
//     structs. The log doubles when full, so a run grows it O(log changes)
//     times. The hotpath analyzer covers Sampler.OnEvent like any other event
//     handler, and tests assert 0 allocs/op for synthetic probes and for the
//     topology's real probe set, and bound the log's growth when every
//     series changes on every tick.
//
// The topology layer registers the standard probe set (switch shared-pool
// occupancy, per-port queue depth and pause state, DCQCN rates, per-host
// sender state, RLB counters) via topo.AttachTelemetry; the harness attaches
// the recorded series to its Result when RunConfig.Telemetry is set.
package telemetry

import "fmt"

// probe is one registered group: fn fills the columns [lo, hi) of a row.
type probe struct {
	fn     func(dst []int64)
	lo, hi int
}

// Registry holds the probe set for one simulation in registration order.
// Registration is a cold-path, construction-time activity; the set must be
// complete before a Sampler is built from it.
type Registry struct {
	probes []probe
	names  []string
	seen   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]bool)}
}

// Register adds a probe group: one series per name, filled in one call. Each
// tick fn receives a slice of len(names) columns, parallel to names, and must
// write every element with a pure read of simulator state — no mutation, no
// allocation. Empty or duplicate names and a nil fn panic: they are
// programming errors in the wiring layer, and silently shadowing a series
// would corrupt every exporter keyed by name.
func (r *Registry) Register(fn func(dst []int64), names ...string) {
	if fn == nil || len(names) == 0 {
		panic("telemetry: probe needs a func and at least one name")
	}
	for _, name := range names {
		if name == "" {
			panic("telemetry: empty probe name")
		}
		if r.seen[name] {
			panic(fmt.Sprintf("telemetry: duplicate probe %q", name))
		}
		r.seen[name] = true
	}
	lo := len(r.names)
	r.names = append(r.names, names...)
	r.probes = append(r.probes, probe{fn: fn, lo: lo, hi: len(r.names)})
}

// Len returns the number of registered series (not groups).
func (r *Registry) Len() int { return len(r.names) }

// Names returns the series names in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.names...)
}
