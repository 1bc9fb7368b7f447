package topo_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/telemetry"
	"github.com/rlb-project/rlb/internal/topo"
)

// Refresh the probe-name golden after an intentional change to the probe set:
//
//	go test ./internal/topo/ -run TestScaleTierProbeNames -update-probes
var updateProbes = flag.Bool("update-probes", false, "rewrite testdata/scale_probe_names.txt")

// scaleNetwork builds the scale-tier fabric (8x8 leaf-spine, 8 hosts per
// leaf) with RLB deployed, the shape of simbench's incast-timeline workload.
func scaleNetwork(t testing.TB) *topo.Network {
	t.Helper()
	s := harness.ScaleTier.Spec(1)
	s.Scheme = "letflow+rlb"
	return topo.Build(harness.MustCompile(s).Topo)
}

// TestScaleTierProbeNames pins the full scale-tier probe list, in
// registration order, against testdata/scale_probe_names.txt. Exporters key
// every series by this list, so reordering or renaming a probe changes every
// consumer's columns.
func TestScaleTierProbeNames(t *testing.T) {
	reg := telemetry.NewRegistry()
	scaleNetwork(t).AttachTelemetry(reg)
	got := reg.Names()
	if reg.Len() != len(got) {
		t.Fatalf("Len() = %d, Names() has %d entries", reg.Len(), len(got))
	}

	path := filepath.Join("testdata", "scale_probe_names.txt")
	if *updateProbes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d probes)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-probes to create)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("probe count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("probe %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// busyScaleNetwork is scaleNetwork part-way through a 28-to-1 incast with
// cross traffic in flight, so every probe group has live state to fold:
// queues and pause bits on the switches, unfinished senders on the hosts.
func busyScaleNetwork(t testing.TB) *topo.Network {
	t.Helper()
	n := scaleNetwork(t)
	for src := 8; src < 36; src++ {
		n.StartFlow(src, 0, 4_000_000)
	}
	for src := 36; src < 64; src++ {
		n.StartFlow(src, src%8+8, 1_000_000)
	}
	n.Run(200 * sim.Microsecond)
	return n
}

// sampleOnly returns a sampler over the network's full probe set driven by
// its own engine, so stepping that engine runs sampler ticks and nothing
// else: the network stays frozen mid-run while the probes read it.
func sampleOnly(n *topo.Network, capacity int) (*telemetry.Sampler, func()) {
	reg := telemetry.NewRegistry()
	n.AttachTelemetry(reg)
	eng := sim.NewEngine()
	s := telemetry.NewSampler(eng, reg, 20*sim.Microsecond, capacity)
	s.Start()
	next := sim.Time(0)
	return s, func() {
		next += 20 * sim.Microsecond
		eng.RunUntil(next)
	}
}

// TestNetworkTelemetryTickAllocs extends the sampler's zero-allocation
// assertion from synthetic counters to the real probe set AttachTelemetry
// wires: one tick over every switch, host, and agent group allocates nothing.
func TestNetworkTelemetryTickAllocs(t *testing.T) {
	n := busyScaleNetwork(t)
	s, step := sampleOnly(n, 512)
	for i := 0; i < 16; i++ {
		step() // warm the event pool
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("network telemetry tick allocates %.2f allocs/op, want 0", avg)
	}
	s.Stop()

	// The frozen network really is busy, so the tick above folded live state.
	rec := s.Recording()
	var queued, senders int64
	for j, name := range rec.Names {
		switch {
		case strings.HasSuffix(name, "/q"):
			queued += rec.At(j, 0)
		case strings.HasSuffix(name, "/active"):
			senders += rec.At(j, 0)
		}
	}
	if queued == 0 || senders == 0 {
		t.Fatalf("busy network sampled %d queued bytes and %d active senders; want both > 0", queued, senders)
	}
}

// BenchmarkNetworkTelemetryTick measures one sampler tick over the
// scale-tier probe set (88 groups, 792 series) on a network frozen
// mid-incast. When the buffer fills, a fresh sampler replaces it with the
// timer stopped, so every timed tick samples rather than drops.
func BenchmarkNetworkTelemetryTick(b *testing.B) {
	const ticks = 1 << 10
	n := busyScaleNetwork(b)
	var (
		s    *telemetry.Sampler
		step func()
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s == nil || s.Samples() == ticks {
			b.StopTimer()
			s, step = sampleOnly(n, ticks)
			b.StartTimer()
		}
		step()
	}
	b.StopTimer()
	s.Stop()
}
