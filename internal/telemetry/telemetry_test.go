package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
)

// constant returns a probe group that writes v into every column.
func constant(v int64) func(dst []int64) {
	return func(dst []int64) {
		for i := range dst {
			dst[i] = v
		}
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// rows replays rec through its cursor into one dense row per tick.
func rows(rec *Recording) [][]int64 {
	var out [][]int64
	for c := rec.Ticks(); c.Next(); {
		out = append(out, append([]int64(nil), c.Row()...))
	}
	return out
}

// replay records vals with a sampler: one probe group over names reports
// vals[i] at tick i, ticks interval apart from t=0, into a buffer of capacity
// ticks. Rows past capacity are dropped.
func replay(interval sim.Time, names []string, capacity int, vals [][]int64) *Recording {
	eng := sim.NewEngine()
	i := 0
	r := NewRegistry()
	r.Register(func(dst []int64) { copy(dst, vals[i]); i++ }, names...)
	s := NewSampler(eng, r, interval, capacity)
	s.Start()
	eng.RunUntil(sim.Time(len(vals)-1) * interval)
	s.Stop()
	return s.Recording()
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Register(constant(1), "a/x")
	mustPanic(t, "duplicate probe name", func() { r.Register(constant(2), "a/x") })
	r.Register(constant(1), "dev0/a", "dev0/b")
	mustPanic(t, "name repeated in a later group", func() {
		r.Register(constant(2), "dev1/a", "dev0/b")
	})
	mustPanic(t, "name repeated within a group", func() {
		r.Register(constant(2), "dev2/a", "dev2/a")
	})
}

func TestRegistryRejectsBadGroups(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "empty name list", func() { r.Register(constant(0)) })
	mustPanic(t, "nil func", func() { r.Register(nil, "a") })
	mustPanic(t, "empty name", func() { r.Register(constant(0), "a", "") })
}

func TestRegistryOrder(t *testing.T) {
	r := NewRegistry()
	r.Register(constant(0), "b")
	r.Register(constant(0), "a", "c")
	r.Register(constant(0), "d")
	got := r.Names()
	if want := "b a c d"; strings.Join(got, " ") != want {
		t.Fatalf("Names() = %v, want registration order [%s]", got, want)
	}
	if r.Len() != 4 {
		t.Fatalf("Len() = %d, want 4 series (three groups)", r.Len())
	}
}

func TestSamplerRecordsAtInterval(t *testing.T) {
	eng := sim.NewEngine()
	var v int64
	r := NewRegistry()
	r.Register(func(dst []int64) { dst[0] = v }, "v")
	r.Register(func(dst []int64) { dst[0], dst[1] = 2*v, 3*v }, "2v", "3v")
	r.Register(func(dst []int64) { dst[0] = -v }, "-v")

	s := NewSampler(eng, r, 10*sim.Microsecond, 16)
	s.Start() // tick at t=0
	for i := 1; i <= 5; i++ {
		// Advance value between ticks so each sample sees a distinct state.
		eng.At(sim.Time(i)*10*sim.Microsecond-sim.Nanosecond, func() { v++ })
	}
	eng.RunUntil(50 * sim.Microsecond)
	s.Stop()

	rec := s.Recording()
	if len(rec.Times) != 6 {
		t.Fatalf("got %d ticks, want 6 (t=0..50us)", len(rec.Times))
	}
	i := 0
	for c := rec.Ticks(); c.Next(); i++ {
		if want := sim.Time(i) * 10 * sim.Microsecond; c.Time() != want || rec.Times[i] != want {
			t.Fatalf("tick %d at %v (Times %v), want %v", i, c.Time(), rec.Times[i], want)
		}
		if len(c.Row()) != 4 {
			t.Fatalf("tick %d has %d values, want 4 series", i, len(c.Row()))
		}
		for j, mul := range []int64{1, 2, 3, -1} {
			if got := c.Row()[j]; got != mul*int64(i) {
				t.Fatalf("series %s at tick %d = %d, want %d", rec.Names[j], i, got, mul*int64(i))
			}
		}
	}
	if i != 6 {
		t.Fatalf("cursor visited %d ticks, want 6", i)
	}
	if rec.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", rec.Dropped)
	}
}

func TestSamplerStopsTicking(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	r.Register(constant(0), "z")
	s := NewSampler(eng, r, sim.Microsecond, 64)
	s.Start()
	eng.RunUntil(5 * sim.Microsecond)
	s.Stop()
	n := s.Samples()
	eng.RunUntil(20 * sim.Microsecond)
	if s.Samples() != n {
		t.Fatalf("sampler recorded %d ticks after Stop (had %d)", s.Samples()-n, n)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending after Stop; the tick timer should be cancelled", eng.Pending())
	}
}

func TestSamplerCapacityDrops(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	r.Register(constant(7), "z", "w")
	s := NewSampler(eng, r, sim.Microsecond, 3)
	s.Start()
	eng.RunUntil(10 * sim.Microsecond)
	s.Stop()
	rec := s.Recording()
	got := rows(rec)
	if len(rec.Times) != 3 || len(got) != 3 {
		t.Fatalf("recorded %d ticks (cursor visited %d), want capacity 3", len(rec.Times), len(got))
	}
	for i, row := range got {
		if len(row) != 2 || row[0] != 7 || row[1] != 7 {
			t.Fatalf("tick %d = %v, want [7 7]", i, row)
		}
	}
	// Ticks at 0..10us inclusive = 11; 3 recorded, 8 dropped.
	if rec.Dropped != 8 {
		t.Fatalf("Dropped = %d, want 8", rec.Dropped)
	}
}

func TestWriteJSONL(t *testing.T) {
	rec := replay(10*sim.Microsecond, []string{"leaf0/shared", "host1/una"}, 2,
		[][]int64{{100, 0}, {200, 42}, {300, 42}})
	var b bytes.Buffer
	if err := WriteJSONL(&b, rec); err != nil {
		t.Fatal(err)
	}
	want := `{"intervalPs":10000000,"samples":2,"dropped":1,"probes":["leaf0/shared","host1/una"]}
{"tPs":0,"v":[100,0]}
{"tPs":10000000,"v":[200,42]}
`
	if b.String() != want {
		t.Fatalf("JSONL mismatch:\ngot:\n%swant:\n%s", b.String(), want)
	}
}

func TestWriteCSV(t *testing.T) {
	rec := replay(sim.Microsecond, []string{"a", `we"ird,name`}, 1, [][]int64{{1, -2}})
	var b bytes.Buffer
	if err := WriteCSV(&b, rec); err != nil {
		t.Fatal(err)
	}
	want := "t_ps,a,\"we\"\"ird,name\"\n0,1,-2\n"
	if b.String() != want {
		t.Fatalf("CSV mismatch:\ngot:\n%q\nwant:\n%q", b.String(), want)
	}
}

// failAfter is a writer that fails on its nth Write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n--; w.n < 0 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

func TestExportPropagatesWriteErrors(t *testing.T) {
	rec := replay(sim.Microsecond, []string{"a"}, 3, [][]int64{{1}, {2}, {3}})
	for _, n := range []int{0, 2} { // fail on the header, then mid-body
		if err := WriteJSONL(&failAfter{n: n}, rec); err != io.ErrShortWrite {
			t.Fatalf("WriteJSONL failing at write %d returned %v", n, err)
		}
		if err := WriteCSV(&failAfter{n: n}, rec); err != io.ErrShortWrite {
			t.Fatalf("WriteCSV failing at write %d returned %v", n, err)
		}
	}
}

func TestExportEmptyRecording(t *testing.T) {
	rec := &Recording{Interval: sim.Microsecond, Names: []string{"a"}}
	var b bytes.Buffer
	if err := WriteJSONL(&b, rec); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "\n"); got != 1 {
		t.Fatalf("empty recording wrote %d lines, want header only", got)
	}
}

// TestCursorReplaysDenseRows is the change log's property test: for seeded
// random probe values — held, returned to 0, the int64 extremes, or fresh —
// the cursor must rebuild exactly the dense rows the probes reported on every
// recorded tick. Tick 0 is always non-zero somewhere, and half the cases
// overfill the buffer so the dropped ticks must leave no trace.
func TestCursorReplaysDenseRows(t *testing.T) {
	extremes := []int64{0, 1, -1, math.MinInt64, math.MaxInt64}
	dropped := 0
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		series, ticks := 1+r.Intn(48), 2+r.Intn(400)
		capacity := ticks
		if seed%2 == 0 {
			capacity = ticks - 1 - r.Intn(ticks/2)
		}
		names := make([]string, series)
		for j := range names {
			names[j] = fmt.Sprintf("s%d", j)
		}
		shadow := make([][]int64, ticks)
		prev := make([]int64, series)
		for i := range shadow {
			row := make([]int64, series)
			for j := range row {
				switch k := r.Intn(10); {
				case k < 5:
					row[j] = prev[j]
				case k < 7:
					row[j] = 0
				case k < 9:
					row[j] = extremes[r.Intn(len(extremes))]
				default:
					row[j] = int64(r.Uint64())
				}
			}
			if i == 0 {
				row[r.Intn(series)] = math.MinInt64
			}
			shadow[i], prev = row, row
		}

		rec := replay(sim.Microsecond, names, capacity, shadow)
		got := rows(rec)
		if len(got) != capacity || len(rec.Times) != capacity {
			t.Fatalf("seed %d: cursor visited %d ticks, Times has %d, want capacity %d",
				seed, len(got), len(rec.Times), capacity)
		}
		if rec.Dropped != ticks-capacity {
			t.Fatalf("seed %d: Dropped = %d, want %d", seed, rec.Dropped, ticks-capacity)
		}
		dropped += rec.Dropped
		for i := range got {
			for j := range got[i] {
				if got[i][j] != shadow[i][j] {
					t.Fatalf("seed %d: series %d at tick %d = %d, probe reported %d",
						seed, j, i, got[i][j], shadow[i][j])
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no case overfilled its buffer")
	}
}

// TestChangeLogGrowthIsGeometric bounds the change log's growth in the worst
// case, every series changing on every tick: the whole run — first tick
// included — may allocate at most 2*log2(changes)+4 times, which only a log
// that grows by a constant factor can meet.
func TestChangeLogGrowthIsGeometric(t *testing.T) {
	const series, ticks = 16, 4096
	names := make([]string, series)
	for j := range names {
		names[j] = fmt.Sprintf("s%d", j)
	}
	var v int64
	r := NewRegistry()
	r.Register(func(dst []int64) {
		v++
		for j := range dst {
			dst[j] = v * int64(j+1)
		}
	}, names...)
	eng := sim.NewEngine()
	s := NewSampler(eng, r, sim.Microsecond, ticks)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s.Start()
	eng.RunUntil((ticks - 1) * sim.Microsecond)
	runtime.ReadMemStats(&after)
	s.Stop()

	if s.Samples() != ticks || s.nlog != series*ticks {
		t.Fatalf("recorded %d ticks and %d changes, want %d and %d", s.Samples(), s.nlog, ticks, series*ticks)
	}
	allocs := after.Mallocs - before.Mallocs
	if limit := uint64(2*math.Log2(series*ticks)) + 4; allocs > limit {
		t.Fatalf("%d ticks of %d changes each allocated %d times, want <= %d", ticks, series, allocs, limit)
	}
}

// TestSamplerTickAllocs is the 0 allocs/op steady-state assertion: after the
// warmup ticks have populated the engine's event free list, each sampling
// tick must allocate nothing.
func TestSamplerTickAllocs(t *testing.T) {
	eng := sim.NewEngine()
	var counters [8]int64
	r := NewRegistry()
	for g := 0; g < 2; g++ {
		cs := counters[4*g : 4*g+4]
		r.Register(func(dst []int64) { copy(dst, cs) },
			fmt.Sprintf("g%d/a", g), fmt.Sprintf("g%d/b", g), fmt.Sprintf("g%d/c", g), fmt.Sprintf("g%d/d", g))
	}
	s := NewSampler(eng, r, sim.Microsecond, 1<<12)
	s.Start()
	next := sim.Time(0)
	step := func() {
		next += sim.Microsecond
		eng.RunUntil(next)
	}
	for i := 0; i < 16; i++ {
		step() // warm the event pool
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("sampler tick allocates %.2f allocs/op in steady state, want 0", avg)
	}
	s.Stop()
}

// BenchmarkSamplerTick measures one tick of 32 synthetic series in four
// groups of eight. When the buffer fills, a fresh sampler replaces it with
// the timer stopped, so every timed tick samples rather than drops.
func BenchmarkSamplerTick(b *testing.B) {
	const ticks = 1 << 12
	var counters [32]int64
	r := NewRegistry()
	for g := 0; g < 4; g++ {
		cs := counters[8*g : 8*g+8]
		names := make([]string, len(cs))
		for k := range names {
			names[k] = fmt.Sprintf("bench/g%d/c%d", g, k)
		}
		r.Register(func(dst []int64) { copy(dst, cs) }, names...)
	}
	var (
		eng  *sim.Engine
		s    *Sampler
		next sim.Time
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s == nil || s.Samples() == ticks {
			b.StopTimer()
			eng, next = sim.NewEngine(), 0
			s = NewSampler(eng, r, sim.Microsecond, ticks)
			s.Start()
			b.StartTimer()
		}
		next += sim.Microsecond
		eng.RunUntil(next)
	}
	b.StopTimer()
	s.Stop()
}

// scaleRecording is a recording shaped like the scale tier's incast timeline
// (792 series, 4,781 ticks at 20 us): mostly small gauges and zero pause
// bits, with a few wide cumulative counters and bit rates per row. One probe
// group generates each tick's row, and a Sampler records it.
func scaleRecording() *Recording {
	const series, ticks = 792, 4781
	names := make([]string, series)
	for j := range names {
		names[j] = fmt.Sprintf("dev%d/s%d", j/9, j%9)
	}
	x := uint64(1)
	i := 0
	r := NewRegistry()
	r.Register(func(dst []int64) {
		for j := range dst {
			x = x*6364136223846793005 + 1442695040888963407
			var v int64
			switch j % 9 {
			case 0, 1: // queue depth in bytes
				v = int64(x>>40) % 200000
			case 2: // pause bit
				if x>>62 == 3 {
					v = 1
				}
			case 3: // DCQCN rate in bit/s
				v = 10000000000 - int64(x>>34)
			case 4: // cumulative sequence sum
				v = int64(i) * int64(x>>52)
			}
			dst[j] = v
		}
		i++
	}, names...)
	eng := sim.NewEngine()
	s := NewSampler(eng, r, 20*sim.Microsecond, ticks)
	s.Start()
	eng.RunUntil(sim.Time(ticks-1) * 20 * sim.Microsecond)
	s.Stop()
	return s.Recording()
}

func BenchmarkWriteJSONL(b *testing.B) {
	rec := scaleRecording()
	var n countWriter
	if err := WriteJSONL(&n, rec); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteJSONL(io.Discard, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
