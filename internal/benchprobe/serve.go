package benchprobe

import (
	"io"
	"testing"

	"viator/internal/serve"
	"viator/internal/sim"
	"viator/internal/telemetry"
)

// --- live-service benchmarks (suite "serve") ---

// serveDump builds a telemetry dump the size a resident stress run
// publishes: a filled recorder (12 series with windowed rollups), two
// well-populated latency histograms and a scored flow set.
func serveDump() *telemetry.Dump {
	rec := telemetry.NewRecorder(256, 4)
	cum := 0.0
	for s := 0; s < 12; s++ {
		s := s
		if s%2 == 0 {
			rec.CounterFn("counter", func() float64 { return cum * float64(s+1) })
		} else {
			rec.Gauge("gauge", func() float64 { return cum - float64(s) })
		}
	}
	now := 0.0
	for i := 0; i < 512; i++ {
		cum++
		now += 0.5
		rec.Tick(now)
	}

	rng := sim.NewRNG(1)
	lat, q := telemetry.NewHist(), telemetry.NewHist()
	for i := 0; i < 100_000; i++ {
		lat.Observe(rng.Exp(0.01))
		q.Observe(float64(rng.Intn(64)))
	}

	qos := telemetry.NewScoreSet()
	for _, name := range []string{"default", "stream", "bulk"} {
		f := qos.Flow(name, telemetry.SLO{Quantile: 0.95, MaxLatency: 0.05, MinDeliveryRatio: 0.5})
		for i := 0; i < 10_000; i++ {
			qos.Sent(f)
			qos.Delivered(f, rng.Exp(0.01))
		}
	}

	return &telemetry.Dump{
		Rec: rec,
		Hists: []telemetry.NamedHist{
			{Name: "delivery_latency", H: lat},
			{Name: "queue_depth", H: q},
		},
		QoS: qos,
	}
}

// metricsRender measures one run's share of a /metrics scrape at the
// published-snapshot seam: rendering the dump into Prometheus family
// chunks (what the driver pays per barrier) plus stitching and writing
// them (what the handler pays per scrape).
func metricsRender(b *testing.B) {
	b.ReportAllocs()
	d := serveDump()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fams := telemetry.PromFamilies(d, `run="r1",scenario="s1"`)
		if err := telemetry.WritePromFamilies(io.Discard, fams); err != nil {
			b.Fatal(err)
		}
	}
}

// serveSnapshotPublish measures the driver's per-barrier publication
// on a resident run (serve.SnapshotBench): read run state, render status
// + Prometheus families + stream lines, store the snapshot, broadcast.
// This is the entire observability cost a resident run pays per
// telemetry tick; the sim hot path between barriers carries none of it.
func serveSnapshotPublish(b *testing.B) {
	b.ReportAllocs()
	publish, err := serve.SnapshotBench()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publish()
	}
}
