package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/telemetry"
)

// Refresh the telemetry golden after an intentional behavior change:
//
//	go test ./internal/harness/ -run TestTelemetryGoldenJSONL -update-telemetry
var updateTelemetry = flag.Bool("update-telemetry", false, "rewrite testdata/telemetry_golden.jsonl")

// telemetrySpec is the pinned scenario behind the telemetry golden: small
// enough to run in a unit test, busy enough that queues build, PFC fires,
// and DCQCN reacts — so the sampled series actually move.
func telemetrySpec() spec.Spec {
	return spec.Spec{
		SimSeed: goldenSeed, Leaves: 2, Spines: 2, HostsPerLeaf: 2, LinkGbps: 10,
		Scheme: "drill+rlb", Workload: "websearch", LoadPct: 40,
		MaxFlowKB: 100, DurationUs: 200, DrainUs: 300,
		Telemetry: &spec.TelemetrySpec{SampleUs: 20},
	}
}

// TestTelemetryFingerprintParity is the observation-only contract: the same
// spec must produce a bit-identical determinism fingerprint — including every
// retained flow's finish time — with telemetry sampling on and off. Sampler
// events may interleave with simulation events on the calendar, but they read
// state without mutating it, so nothing downstream may shift.
func TestTelemetryFingerprintParity(t *testing.T) {
	run := func(s spec.Spec) (string, *telemetry.Recording) {
		cfg := MustCompile(s)
		cfg.KeepNetwork = true
		cfg.StrictInvariants = true
		res := Run(cfg)
		if len(res.Violations) != 0 {
			t.Fatalf("invariant violations: %v", res.Violations[0])
		}
		fp := Fingerprint(res)
		res.Network = nil
		return fp, res.Telemetry
	}

	with := telemetrySpec()
	without := telemetrySpec()
	without.Telemetry = nil

	fpOn, rec := run(with)
	fpOff, recOff := run(without)

	if rec == nil {
		t.Fatal("telemetry spec produced no recording")
	}
	if recOff != nil {
		t.Fatal("telemetry-off run attached a recording")
	}
	if len(rec.Times) < 10 || len(rec.Names) == 0 {
		t.Fatalf("implausibly small recording: %d samples x %d probes", len(rec.Times), len(rec.Names))
	}
	if fpOn != fpOff {
		t.Fatalf("telemetry sampling perturbed the simulation:\non:  %s\noff: %s", fpOn, fpOff)
	}
}

// TestTelemetryGoldenJSONL pins the exported JSONL byte-for-byte: probe set,
// sample times, and every sampled value for the pinned spec at goldenSeed.
// Any diff means either the exporter format changed or the simulation's
// observable state trajectory changed — both require a deliberate refresh
// with -update-telemetry and a CHANGES.md note.
func TestTelemetryGoldenJSONL(t *testing.T) {
	res := Run(MustCompile(telemetrySpec()))
	if res.Telemetry == nil {
		t.Fatal("no recording")
	}
	if res.Telemetry.Dropped != 0 {
		t.Fatalf("sampler dropped %d samples; capacity math is wrong", res.Telemetry.Dropped)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, res.Telemetry); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "telemetry_golden.jsonl")
	if *updateTelemetry {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no telemetry golden (run with -update-telemetry to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := buf.Bytes()
		line := 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				break
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("telemetry JSONL drifted from golden at line %d (got %d bytes, want %d); refresh with -update-telemetry if intentional",
			line, len(got), len(want))
	}
}

// TestTelemetryScaleExportDigest pins the JSONL and CSV exports of one
// scale-tier incast timeline (792 series x 4,781 ticks at 20 us, letflow+rlb,
// 5 x 28-to-1 x 4,000 KB) by sha256. The golden above covers a small fabric;
// this run is the shape the benchmark exports, with wide counters, long
// constant stretches, and pause fronts, so a storage or exporter change that
// only misbehaves at scale still shows.
func TestTelemetryScaleExportDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-tier run; skipped under -short")
	}
	s := ScaleTier.Spec(1000)
	s.Scheme = "letflow+rlb"
	s.IncastReps = 5
	s.IncastDegree = 28
	s.IncastKB = 4000
	s.Telemetry = &spec.TelemetrySpec{SampleUs: 20}
	rec := Run(MustCompile(s)).Telemetry
	if rec == nil {
		t.Fatal("no recording")
	}
	for _, c := range []struct {
		name  string
		write func(io.Writer, *telemetry.Recording) error
		bytes int
		sum   string
	}{
		{"jsonl", telemetry.WriteJSONL, 8798506, "7684016351bdd58056bf8a2a1605aa8532105e748c155ef7586253cee143cffe"},
		{"csv", telemetry.WriteCSV, 8729931, "55633510ce1c3f621f772c5ebfaab3971391667e6c2c01b6249ac034299d404b"},
	} {
		var buf bytes.Buffer
		if err := c.write(&buf, rec); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); buf.Len() != c.bytes || got != c.sum {
			t.Errorf("%s export: %d bytes, sha256 %s; want %d bytes, sha256 %s",
				c.name, buf.Len(), got, c.bytes, c.sum)
		}
	}
}
