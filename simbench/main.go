// Command simbench measures what the RLB simulator costs in host time, end
// to end and layer by layer, on three fixed workloads. It drives the
// simulator only through its public entry points (harness.Compile, Run,
// RunAll, Fingerprint, metrics.BuildFlowReport, telemetry.WriteJSONL) and
// times layers from outside, by wrapping the seams harness.Run exposes
// through RunConfig.Inject and RunConfig.Topo. README.md documents the
// workloads, the metrics and how to run it.
//
// Usage (from the repository root):
//
//	bash simbench/run.sh --workload fabric-drill-rlb --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fabric-drill-rlb, incast-timeline or baseline-sweep")
	seed := fs.Uint64("seed", 1, "workload seed; every simulation seed derives from it")
	seconds := fs.Int("seconds", 20, "how long to measure, in seconds")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "simbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	traced := *traceFlag == 1
	m, err := measure(w, *seed, traced, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}

	fmt.Fprintf(stdout, "simbench workload=%s seed=%d trace=%d seconds=%d gomaxprocs=%d %s\n",
		w.name, *seed, *traceFlag, *seconds, runtime.GOMAXPROCS(0), runtime.Version())
	attempted, failures := m.failures()
	fmt.Fprintf(stdout, "batches: %d timed after 1 warm-up (the last re-runs the warm-up's cells), %d simulations, %d failed\n",
		len(m.batches)-1, attempted, len(failures))
	for i, f := range failures {
		if i == 5 {
			fmt.Fprintf(stdout, "  ... %d more\n", len(failures)-i)
			break
		}
		fmt.Fprintln(stdout, "  FAILED", f)
	}
	var ms []metric
	if traced {
		ms = m.layerMetrics()
	} else {
		ms = m.endToEnd()
	}
	printMetrics(stdout, ms)
	if traced {
		path, err := m.spanPath(*seed)
		if err == nil {
			err = m.writeSpans(path)
		}
		if err != nil {
			fmt.Fprintln(stdout, "spans: not written:", err)
		} else {
			fmt.Fprintln(stdout, "spans: per-simulation span aggregates in", path)
		}
	}
	m.printModel(stdout, w.name, *seed)

	out := result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures), Metrics: map[string]metricValue{}}
	for _, x := range ms {
		if x.omit {
			continue
		}
		out.Metrics[x.name] = metricValue{Value: x.value, Unit: x.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one printed metric; note adds context to the human-readable
// line, and omit keeps a metric out of the JSON line.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
	omit  bool
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-30s %16.6f %-10s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// leg is one pass over a workload's batch.
type leg struct {
	runs []*simRun
	wall time.Duration
	rt   runtimeSnap // Go runtime counters over the simulations
}

// batch is one batch of the workload: the untraced leg and, in a traced
// run, the same cells with telemetry off (export workloads) and traced.
type batch struct {
	plain, off, traced leg
}

type measurement struct {
	w       workload
	clock   clockCost
	batches []batch // the warm-up, fresh batches, then the warm-up's cells again
}

// measure runs batches until the budget is spent: a warm-up, fresh batches,
// and last the warm-up's cells again as the determinism re-run. At least
// three batches run.
func measure(w workload, seed uint64, traced bool, budget time.Duration) (*measurement, error) {
	m := &measurement{w: w}
	if traced {
		m.clock = calibrate()
	}
	var buf bytes.Buffer
	runOne := func(specs []spec.Spec, tracedLeg bool) (leg, error) {
		// Collect the previous leg's garbage first, so that no leg pays for
		// another's and every leg starts from the same heap.
		runtime.GC()
		return runLeg(w, specs, tracedLeg, traced && !tracedLeg, &buf)
	}
	runBatch := func(specs []spec.Spec) error {
		var bt batch
		var err error
		if bt.plain, err = runOne(specs, false); err != nil {
			return err
		}
		if traced && w.export {
			if bt.off, err = runOne(withoutTelemetry(specs), false); err != nil {
				return err
			}
		}
		if traced {
			if bt.traced, err = runOne(specs, true); err != nil {
				return err
			}
		}
		m.batches = append(m.batches, bt)
		return nil
	}
	first, err := w.cells(seed, 0)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for b := 0; ; b++ {
		specs := first
		if b > 0 {
			if specs, err = w.cells(seed, b); err != nil {
				return nil, err
			}
		}
		bStart := time.Now()
		if err := runBatch(specs); err != nil {
			return nil, err
		}
		// Stop while there is room for one more batch: the re-run.
		if b >= 1 && time.Since(start)+2*time.Since(bStart) > budget {
			break
		}
	}
	return m, runBatch(first)
}

func withoutTelemetry(specs []spec.Spec) []spec.Spec {
	out := make([]spec.Spec, len(specs))
	for i, s := range specs {
		out[i] = s.Clone()
		out[i].Telemetry = nil
	}
	return out
}

// runLeg runs every cell once, serially or through harness.RunAll, then
// checks each simulation and reads its counters. timeReport re-times the
// flow report on each network, outside the leg's wall time.
func runLeg(w workload, specs []spec.Spec, traced, timeReport bool, buf *bytes.Buffer) (leg, error) {
	var l leg
	before := readRuntime()
	start := time.Now()
	if w.fanOut {
		cfgs := make([]harness.RunConfig, len(specs))
		for i, s := range specs {
			r, err := prepare(s, traced)
			if err != nil {
				return l, err
			}
			l.runs = append(l.runs, r)
			cfgs[i] = r.cfg
		}
		for i, res := range harness.RunAll(cfgs) {
			l.runs[i].res = res
		}
	} else {
		for _, s := range specs {
			r, err := prepare(s, traced)
			if err != nil {
				return l, err
			}
			r.runSerial()
			l.runs = append(l.runs, r)
		}
	}
	if w.export {
		for _, r := range l.runs {
			r.export(buf)
		}
	}
	l.wall = time.Since(start)
	l.rt = readRuntime().sub(before)
	for _, r := range l.runs {
		r.finish(timeReport)
	}
	return l, nil
}

// failures counts every simulation run and lists the failed ones: a failed
// check, or a fingerprint that differs from the cell's untraced run in the
// same batch (the traced and telemetry-off legs) or, for the last batch,
// from the warm-up's (the determinism re-run).
func (m *measurement) failures() (attempted int, failed []string) {
	last := len(m.batches) - 1
	for b, bt := range m.batches {
		ref := bt.plain.runs
		if b == last {
			ref = m.batches[0].plain.runs
		}
		for _, l := range []leg{bt.plain, bt.off, bt.traced} {
			for i, r := range l.runs {
				attempted++
				switch {
				case r.failure != "":
					failed = append(failed, fmt.Sprintf("batch %d %s: %s", b, r.spec.Params(), r.failure))
				case ref[i].failure == "" && r.fp != ref[i].fp:
					failed = append(failed, fmt.Sprintf("batch %d %s: fingerprint differs from the reference run", b, r.spec.Params()))
				}
			}
		}
	}
	return attempted, failed
}

// spanPath is where a traced run writes its span file: beside the
// executable, which run.sh builds into .bench_build/.
func (m *measurement) spanPath(seed uint64) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	return filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-%s-seed%d.jsonl", m.w.name, seed)), nil
}

// timed returns the batches after the warm-up.
func (m *measurement) timed() []batch { return m.batches[1:] }

// endToEnd computes the end-to-end metrics from the untraced legs.
func (m *measurement) endToEnd() []metric {
	var nsPerEvent, walls, setups, batchWalls []float64
	for _, bt := range m.timed() {
		batchWalls = append(batchWalls, bt.plain.wall.Seconds())
		for _, r := range bt.plain.runs {
			if r.failure != "" {
				continue
			}
			nsPerEvent = append(nsPerEvent, ratio(float64(r.runNs()), float64(r.count.events)))
			walls = append(walls, float64(r.wallNs())/1e9)
			setups = append(setups, float64(r.setupNs())/1e9)
		}
	}
	tail, pct := tailOf(walls)
	attempted, failed := m.failures()
	return []metric{
		{name: "ns_per_event", value: median(nsPerEvent), unit: "ns",
			note: "median over simulations of run-span host ns per executed event"},
		{name: "sim_wall_s.p50", value: median(walls), unit: "s",
			note: fmt.Sprintf("per-simulation wall time, %d samples", len(walls))},
		{name: "sim_wall_s.tail", value: tail, unit: "s",
			note: fmt.Sprintf("p%.1f of %d samples", pct, len(walls))},
		{name: "batch_wall_s", value: median(batchWalls), unit: "s",
			note: fmt.Sprintf("median of %d batches of %d simulations", len(batchWalls), len(m.batches[0].plain.runs))},
		{name: "setup_s", value: median(setups), unit: "s",
			note: "median per-simulation Compile to end of the Inject hook"},
		{name: "peak_rss_mb", value: peakRSSMB(), unit: "MB", note: "peak resident set of this process"},
		{name: "failed_share", value: ratio(float64(len(failed)), float64(attempted)), unit: "ratio",
			note: "also the JSON failed/attempted; left out of the metrics object because it is 0 when healthy",
			omit: true},
	}
}

// median of xs (mean of the two middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest percentile with at least ten samples above it,
// and that percentile; with ten or fewer samples, the maximum.
func tailOf(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, KiB on
// Linux), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// printModel prints the simulated statistics of the warm-up batch as exact
// counters, so a change meant only to speed the simulator up can show that
// they are unchanged.
func (m *measurement) printModel(w io.Writer, name string, seed uint64) {
	fmt.Fprintln(w, "model: simulated statistics (sim time), exact per seed; unvalidated against the paper's NS-3 results — the repository holds no reference data, so no accuracy error is reported")
	all := fnv.New64a()
	for i, r := range m.batches[0].plain.runs {
		if r.failure != "" {
			continue
		}
		h := fnv.New64a()
		io.WriteString(h, r.fp)
		io.WriteString(all, r.fp)
		st := r.model
		fmt.Fprintf(w, "model %s seed=%d sim=%d [%s] completed=%d/%d fct_p50_ms=%v fct_p99_ms=%v pauses=%d events=%d fingerprint=%016x\n",
			name, seed, i, r.spec.Params(), st.completed, st.flows, st.fctP50, st.fctP99, st.pauses, st.events, h.Sum64())
	}
	fmt.Fprintf(w, "model %s seed=%d digest=%016x\n", name, seed, all.Sum64())
}
