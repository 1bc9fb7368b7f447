package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// spanNames labels the span kinds in the span file.
var spanNames = [numSpanKinds]string{
	spanSwitchRecv: "switch.receive",
	spanHostRecv:   "host.receive",
	spanTxDone:     "switch.txdone",
	spanLeafRoute:  "leaf.route",
	spanSpineRoute: "spine.route",
	spanChoose:     "lb.choose",
}

// spanRecord is one traced simulation's line in the span file. Every span of
// the simulation is identified by Sim.
type spanRecord struct {
	Sim           string              `json:"sim"` // "batch/index"
	Spec          string              `json:"spec"`
	Events        uint64              `json:"events"`
	CompileNs     int64               `json:"compile_ns"`
	SetupNs       int64               `json:"setup_ns"`
	RunNs         int64               `json:"run_ns"`
	UntracedRunNs int64               `json:"untraced_run_ns"`
	ReportNs      int64               `json:"report_ns"` // untraced leg
	ExportNs      int64               `json:"export_ns"`
	Spans         map[string]spanStat `json:"spans"`
}

// spanStat is one span kind of one simulation: every call, the timed ones,
// and the self time estimated over all calls with the clock cost removed.
type spanStat struct {
	Calls  uint64  `json:"calls"`
	Timed  uint64  `json:"timed"`
	SelfNs float64 `json:"self_ns"`
}

// writeSpans writes the span aggregates of every traced simulation of the
// run to path, one JSON object per line, once the run has ended.
func (m *measurement) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for b, bt := range m.batches {
		for i, r := range bt.traced.runs {
			if r.failure != "" {
				continue
			}
			p := bt.plain.runs[i]
			self, _ := r.tr.selfNs(m.clock)
			rec := spanRecord{
				Sim:           fmt.Sprintf("%d/%d", b, i),
				Spec:          r.spec.Params(),
				Events:        r.count.events,
				CompileNs:     r.compileNs,
				SetupNs:       r.setupNs(),
				RunNs:         r.runNs(),
				UntracedRunNs: p.runNs(),
				ReportNs:      p.reportNs,
				ExportNs:      r.exportNs,
				Spans:         map[string]spanStat{},
			}
			for k, name := range spanNames {
				var timed uint64
				for top := range r.tr.agg {
					timed += r.tr.agg[top][k].calls
				}
				rec.Spans[name] = spanStat{Calls: r.tr.calls[k], Timed: timed, SelfNs: self[k]}
			}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
