// Package benchprobe owns the micro-benchmark table: every benchmark
// body, the name it is reported under and the suite it belongs to,
// written once. Both drivers iterate the same rows: the root package's
// `go test -bench 'Suite/<suite>/'` runs them as sub-benchmarks, and
// `viatorbench -bench <suite|all>` runs them through testing.Benchmark
// and emits JSON. Neither keeps a list of its own, so the two can never
// measure different loops or disagree on a suite's members.
package benchprobe

import (
	"fmt"
	"testing"

	"viator/internal/mobility"
	"viator/internal/routing"
	"viator/internal/sim"
	"viator/internal/telemetry"
	"viator/internal/topo"
)

// Bench is one row of the benchmark table.
type Bench struct {
	Suite string             // the `viatorbench -bench` selector that runs it
	Name  string             // reported name, `<area>.<what>`
	Fn    func(b *testing.B) // the measured body
}

// All is the selector that runs every suite.
const All = "all"

// Table returns every benchmark row in order, grouped by suite. seed
// parameterises the bodies that build a seeded workload; workers is the
// replicate-pool width of the replicated-harness row.
func Table(seed uint64, workers int) []Bench {
	var t []Bench
	suite := func(name string, rows ...Bench) {
		for _, r := range rows {
			r.Suite = name
			t = append(t, r)
		}
	}
	row := func(name string, fn func(b *testing.B)) Bench { return Bench{Name: name, Fn: fn} }

	// The substrate: kernel, transport, VM, codec, fabric, roles, spec
	// checker, and one replicated E1 run through the whole harness.
	suite("kernel",
		row("kernel.schedule_fire", kernelScheduleFire),
		row("kernel.schedule_cancel", kernelScheduleCancel),
		row("kernel.ticker", kernelTicker),
		row("netsim.send_deliver", netsimSendDeliver),
		row("netsim.forwarding", netsimForwarding),
		row("vm.execution", vmExecution),
		row("shuttle.codec", shuttleCodec),
		row("hw.fabric_reconfigure", fabricReconfigure),
		row("hw.fabric_eval", fabricEval),
		row("roles.fusion_pipeline", roleFusionPipeline),
		row("spec.state_exploration", specStateExploration),
		row("e1.replicated_4x", replicated("E1", 4, seed, workers)),
	)
	// The adaptive control plane on an S1-sized radio mesh (1000 nodes,
	// ~16k links, 2 overlays).
	suite("routing",
		row("routing.pulse_steady", adaptivePulseSteady(seed)),
		row("routing.pulse_lazy_sparse", adaptivePulseLazySparse(seed)),
		row("routing.pulse_rebuild", adaptivePulseRebuild(seed)),
		row("routing.next_hop", adaptiveNextHop(seed)),
	)
	// The physical layer at S1 scale (1000 mobile ships, radius 75), plus
	// one full S2 megalopolis run (10k ships).
	suite("mobility",
		row("mobility.connectivity_grid", connectivityGrid(seed)),
		row("mobility.connectivity_incremental", connectivityIncremental(seed)),
		row("mobility.step", mobilityStep(seed)),
		row("s2.megalopolis_run", replicated("S2", 1, seed, 1)),
	)
	// Streaming-telemetry hot paths; zero allocs on every observe side.
	suite("telemetry",
		row("telemetry.hist_observe", histObserve),
		row("telemetry.hist_quantile", histQuantile),
		row("telemetry.hist_merge", histMerge),
		row("telemetry.recorder_tick", recorderTick),
		row("telemetry.scorecard_delivered", scorecardDelivered),
	)
	// Each principle engine's steady-state hot path at the S2 fleet size,
	// plus a small jet epidemic through the whole network model.
	suite("principles",
		row("principles.gossip_round", gossipRound(seed)),
		row("principles.form_clusters_steady", formClustersSteady(seed)),
		row("principles.form_clusters_rebuild", formClustersRebuild(seed)),
		row("principles.observe_facts", observeFacts(seed)),
		row("principles.emerge_frontier", emergeFrontier(seed)),
		row("principles.feedback_publish_key", feedbackPublishKey),
		row("principles.metamorph_pulse", metamorphPulse(seed)),
		row("principles.jet_epidemic", jetEpidemic),
	)
	// The space-partitioned executor: the raw mailbox cycle, then the
	// windowed protocol and the S3 smoke continent at 1/2/4/8 kernels.
	ks := []int{1, 2, 4, 8}
	shard := []Bench{row("shard.mailbox_cycle", shardMailbox)}
	for _, k := range ks {
		shard = append(shard, row(fmt.Sprintf("shard.group_windowed_k%d", k), shardGroupWindowed(k, 64)))
	}
	for _, k := range ks {
		shard = append(shard, row(fmt.Sprintf("shard.s3_smoke_k%d", k), s3Smoke(k, seed)))
	}
	suite("shard", shard...)
	// The live service: per-barrier snapshot publication and one run's
	// share of a /metrics scrape.
	suite("serve",
		row("serve.snapshot_publish", serveSnapshotPublish),
		row("serve.metrics_render", metricsRender),
	)
	return t
}

// Suites returns the table's suite names in table order.
func Suites() []string {
	var names []string
	for _, r := range Table(0, 0) {
		if len(names) == 0 || names[len(names)-1] != r.Suite {
			names = append(names, r.Suite)
		}
	}
	return names
}

// Select returns the rows of one suite in table order, or every row for
// All. An unknown suite selects nothing.
func Select(rows []Bench, suite string) []Bench {
	if suite == All {
		return rows
	}
	var sel []Bench
	for _, r := range rows {
		if r.Suite == suite {
			sel = append(sel, r)
		}
	}
	return sel
}

// --- routing control-plane benchmarks (suite "routing") ---
//
// Each body is a constructor taking the topology seed and returning the
// benchmark func, so the seed recorded in viatorbench's JSON is the seed
// the numbers were actually measured on.

// controlPlaneGraph builds the S1-sized control-plane benchmark topology:
// 1000 nodes on a 1000×1000 arena with radio range 75 — the same radio-
// mesh density as the metropolis scenario, ~16k directed links.
func controlPlaneGraph(seed uint64) *topo.Graph {
	return topo.RandomGeometric(1000, 1000, 75, sim.NewRNG(seed))
}

// controlPlaneRouter is the benchmark router: the default overlay plus a
// congestion-phobic QoS class, with utilization observed on every link.
func controlPlaneRouter(g *topo.Graph) *routing.Adaptive {
	r := routing.NewAdaptive(g, 4)
	r.SpawnOverlay("qos", 3)
	for li := 0; li < g.Links(); li++ {
		r.ObserveUtilization(li, 0.5)
	}
	return r
}

// adaptivePulseSteady measures the gated no-op pulse: no routing input
// changed since the last invalidation, so a pulse is one version compare
// plus a utilization-snapshot scan. 0 allocs/op.
func adaptivePulseSteady(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		g := controlPlaneGraph(seed)
		r := controlPlaneRouter(g)
		r.Pulse()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Pulse()
		}
		b.StopTimer()
		if r.Recomputes != 1 || r.SkippedPulses != b.N {
			b.Fatalf("gate failed: recomputes=%d skipped=%d", r.Recomputes, r.SkippedPulses)
		}
	}
}

// adaptivePulseLazySparse measures the sparse-traffic adaptation cycle:
// fresh utilization on one link, an invalidating pulse, then routes from
// 16 sources — the per-source lazy builds, not all-pairs. It reports
// settles/op, the nodes those builds settle: each tree is settled only as
// far as its destination, which is what end-to-end runs save.
func adaptivePulseLazySparse(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		g := controlPlaneGraph(seed)
		r := controlPlaneRouter(g)
		n := topo.NodeID(g.N())
		// Warm the pooled tables/scratches so the figures show the steady
		// state, not the one-time build of the table arena.
		r.Pulse()
		r.Rebuild()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ObserveUtilization(i%g.Links(), float64(i%7)/8)
			r.Pulse()
			for s := 0; s < 16; s++ {
				src := topo.NodeID((i*31 + s*61) % int(n))
				r.NextHop("qos", src, (src+n/2)%n)
			}
		}
		b.ReportMetric(float64(r.Settles)/float64(b.N), "settles/op")
	}
}

// adaptivePulseRebuild measures the full eager adaptation at S1 scale:
// fresh utilization, an invalidating pulse, then Rebuild fans the
// all-pairs recomputation of every overlay over the worker pool — the
// direct successor of the old clone-per-overlay Pulse.
func adaptivePulseRebuild(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		g := controlPlaneGraph(seed)
		r := controlPlaneRouter(g)
		// Warm the pooled tables/scratches so the figures show the steady
		// state, not the one-time build of the table arena.
		r.Pulse()
		r.Rebuild()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ObserveUtilization(i%g.Links(), float64(i%7)/8)
			r.Pulse()
			r.Rebuild()
		}
	}
}

// --- physical-layer benchmarks (suite "mobility") ---

// physicalModel builds the S1-scale mobility workload: 1000 random-
// waypoint ships on a 1000×1000 arena — the metropolis fleet whose
// radio-range refresh the spatial-hash work is measured against.
func physicalModel(seed uint64) *mobility.RandomWaypoint {
	return mobility.NewRandomWaypoint(1000, 1000, 2, 10, 1, sim.NewRNG(seed))
}

// physicalRadius is the radio range matching the S1 scenario.
const physicalRadius = 75.0

// physicalFrames precomputes one fixed cycle of fleet positions: the
// model is advanced into its long-run (center-biased) regime, then 256
// consecutive 0.1 s frames are recorded. Every connectivity benchmark
// replays this same cycle, so the variants measure the identical
// refresh workload, and per-op work does not drift with the iteration
// count the harness picks.
func physicalFrames(seed uint64) [][]topo.Point {
	m := physicalModel(seed)
	m.Step(60)
	frames := make([][]topo.Point, 256)
	for f := range frames {
		frames[f] = append([]topo.Point(nil), m.Step(0.1)...)
	}
	return frames
}

// connectivityGrid measures the spatial-hash refresh with the brute-force
// mobility.Connectivity's flap semantics: candidates from the grid
// neighborhood (O(n·k)) instead of all pairs, every link still cycled
// down/up.
func connectivityGrid(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		frames := physicalFrames(seed)
		g := topo.New()
		g.AddNodes(len(frames[0]))
		var sc mobility.ConnScratch
		sc.GridRefresh(g, frames[len(frames)-1], physicalRadius)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.GridRefresh(g, frames[i%len(frames)], physicalRadius)
		}
	}
}

// connectivityIncremental measures the production refresh: spatial-hash
// candidates diffed against the previous neighbor sets, so only links
// whose endpoints crossed radio range are toggled. One full warm cycle
// creates every link the frame cycle will ever need, so the measured
// loop is the true steady state: 0 allocs/op.
func connectivityIncremental(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		frames := physicalFrames(seed)
		g := topo.New()
		g.AddNodes(len(frames[0]))
		var sc mobility.ConnScratch
		for _, f := range frames {
			sc.RefreshInto(g, f, physicalRadius)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.RefreshInto(g, frames[i%len(frames)], physicalRadius)
		}
	}
}

// mobilityStep measures pure position advancement into a caller-owned
// buffer for the 1000-ship fleet. 0 allocs/op once the buffer has grown.
func mobilityStep(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		m := physicalModel(seed)
		var pos []topo.Point
		pos = m.StepInto(pos, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pos = m.StepInto(pos, 0.1)
		}
	}
}

// --- telemetry benchmarks (suite "telemetry") ---

// histObserve measures the streaming histogram's per-observation cost:
// a float-bit bucket index plus a handful of increments. 0 allocs/op —
// the property that lets it replace the retained-sample Summary as the
// delivery-latency sink on stress scenarios.
func histObserve(b *testing.B) {
	b.ReportAllocs()
	h := telemetry.NewHist()
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(rng.Exp(0.01))
	}
}

// histQuantile measures a quantile query against a well-filled histogram:
// one cumulative walk over the fixed bucket array per order statistic.
func histQuantile(b *testing.B) {
	b.ReportAllocs()
	h := telemetry.NewHist()
	rng := sim.NewRNG(1)
	for i := 0; i < 1_000_000; i++ {
		h.Observe(rng.Exp(0.01))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.95)
	}
}

// histMerge measures folding one full histogram into another — the
// per-replicate pooling cost of the telemetry export pipeline.
func histMerge(b *testing.B) {
	b.ReportAllocs()
	src, dst := telemetry.NewHist(), telemetry.NewHist()
	rng := sim.NewRNG(1)
	for i := 0; i < 100_000; i++ {
		src.Observe(rng.Exp(0.01))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Merge(src)
	}
}

// recorderTick measures one flight-recorder tick over a telemetry stack
// the size the stress scenarios run (the scenario counters, a role
// census prep pass stand-in, and per-role gauges — 12 series): closure
// samples into preallocated columnar rings, windowed rollups included.
// 0 allocs/op steady-state.
func recorderTick(b *testing.B) {
	b.ReportAllocs()
	r := telemetry.NewRecorder(256, 4)
	var census [5]float64
	cum := 0.0
	r.BeforeTick(func() {
		for k := range census {
			census[k] = cum * float64(k)
		}
	})
	for s := 0; s < 7; s++ {
		s := s
		if s%2 == 0 {
			r.CounterFn("c", func() float64 { return cum * float64(s+1) })
		} else {
			r.Gauge("g", func() float64 { return cum - float64(s) })
		}
	}
	for k := range census {
		k := k
		r.Gauge("roles", func() float64 { return census[k] })
	}
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cum++
		now += 0.5
		r.Tick(now)
	}
}

// scorecardDelivered measures the per-delivery QoS scorecard cost: two
// slice increments plus one histogram observe. 0 allocs/op.
func scorecardDelivered(b *testing.B) {
	b.ReportAllocs()
	s := telemetry.NewScoreSet()
	f := s.Flow("data", telemetry.SLO{Quantile: 0.95, MaxLatency: 0.05, MinDeliveryRatio: 0.5})
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sent(f)
		s.Delivered(f, rng.Exp(0.01))
	}
}

// adaptiveNextHop measures the forwarding-path lookup on warm tables —
// the per-hop per-packet cost. O(1) array reads, 0 allocs/op.
func adaptiveNextHop(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		g := controlPlaneGraph(seed)
		r := controlPlaneRouter(g)
		r.Pulse()
		r.Rebuild()
		n := topo.NodeID(g.N())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := topo.NodeID(i) % n
			r.NextHop("qos", src, (src+n/2)%n)
		}
	}
}
