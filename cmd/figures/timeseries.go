package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/telemetry"
)

// runTimeseries regenerates a Fig. 2-style time series — per-switch queue
// occupancy and PFC pause state over the run — from the motivation
// scenario's first grid cell (Fig. 3 grid: packet spraying with PFC on, the
// configuration whose queue build-up and pause propagation the paper's
// motivation section plots). The sampled series are written to path (JSONL,
// or CSV for a .csv suffix) and a short timeline summary is printed.
func runTimeseries(path string, interval time.Duration, scale harness.Scale, seed uint64) int {
	us := int(interval / time.Microsecond)
	if us < 1 {
		us = 1
	}
	grids, err := harness.FigureGrids("3", scale, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	cells, err := grids[0].Cells()
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	s := cells[0] // spraying with PFC on: the motivation baseline
	s.Telemetry = &spec.TelemetrySpec{SampleUs: us}
	cfg, err := harness.Compile(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	res := harness.Run(cfg)
	rec := res.Telemetry

	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		err = telemetry.WriteCSV(f, rec)
	} else {
		err = telemetry.WriteJSONL(f, rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}

	fmt.Printf("timeseries: %s @ %dus -> %s\n", s.Params(), us, path)
	fmt.Printf("recorded:   %d probes x %d samples (%d dropped) over %v\n",
		len(rec.Names), len(rec.Times), rec.Dropped, res.SimTime)
	// One pass over the ticks keeps every series' peak and sum: the peak of
	// a shared-pool series is its switch's high-water mark, the sum of a
	// pause bit its port's paused-tick count.
	peak := make([]int64, len(rec.Names))
	sum := make([]int64, len(rec.Names))
	for c := rec.Ticks(); c.Next(); {
		for j, v := range c.Row() {
			if v > peak[j] {
				peak[j] = v
			}
			sum[j] += v
		}
	}
	for j, name := range rec.Names {
		switch {
		case strings.HasSuffix(name, "/shared"):
			fmt.Printf("  %-18s peak %d B\n", name, peak[j])
		case strings.HasSuffix(name, "/paused") && sum[j] > 0:
			fmt.Printf("  %-18s paused %d/%d ticks\n", name, sum[j], len(rec.Times))
		}
	}
	return 0
}
