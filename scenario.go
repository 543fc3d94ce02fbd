package viator

import (
	"embed"
	"fmt"
	"runtime"
	"strings"

	"viator/internal/mobility"
	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/scenario"
	"viator/internal/ship"
	"viator/internal/shuttle"
	"viator/internal/sim"
	"viator/internal/stats"
	"viator/internal/telemetry"
	"viator/internal/topo"
	"viator/internal/workload"
)

// The scenario compiler: lowers a validated internal/scenario spec onto
// the Network machinery. There is one compiler for every spec. A spec
// with shards = D describes D spatial districts; an unsharded spec is the
// one-district case (D = max(shards, 1)). Each district is a full Network
// armed in the same fixed order (see arm), and the sharded executor in
// shardrun.go connects several districts by trunks. The stress scenarios
// S1 and S2 are themselves specs (scenarios/s1.json, s2.json, embedded
// below), and their one-district runs reproduce the retired hand-written
// RunS1/RunS2 byte-for-byte: the district runs on the kernel NewNetwork
// builds from the seed and performs the same kernel registrations and
// RNG splits in the same order — mobility model split first, then one
// shared churn+traffic stream split after the jets — so the golden
// tables and telemetry exports pinned in testdata/scenario are unchanged.
//
// Determinism contract: a (spec, seed) pair fully determines the run
// (for sharded specs, a (spec, seed, K) triple; see shardrun.go).
// Compilation is pure; everything seed-dependent happens inside Run on
// the per-run kernel RNGs, and replicate fan-out reuses the registry's
// seed-stream discipline (replicateSeed + sim.RunParallel), so tables,
// telemetry and assertion verdicts are byte-identical for any worker
// count.

// Scenario is one compiled spec, ready to run for any seed. Compiled
// state is read-only after CompileScenario, so one Scenario may run many
// replicates concurrently.
type Scenario struct {
	// Spec is the validated source spec (not copied; treat as immutable).
	Spec *scenario.Spec

	jets []scenarioJet
	slo  telemetry.SLO
	// zipf holds one precomputed sampler per hotspot traffic entry
	// (nil elsewhere) over one district's ships: the harmonic CDF depends
	// only on the spec, so it is built once here, never per replicate.
	zipf []*workload.Zipf
	// rowAt lists the checkpoint-row times (the same float accumulation
	// as Spec.NumRows).
	rowAt []float64
}

type scenarioJet struct {
	at     int
	kind   roles.Kind
	fanout int
}

// CompileScenario validates sp and resolves it into a runnable Scenario.
func CompileScenario(sp *scenario.Spec) (*Scenario, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	sc := &Scenario{
		Spec: sp,
		slo: telemetry.SLO{
			Quantile:         sp.SLO.Quantile,
			MaxLatency:       sp.SLO.MaxLatency,
			MinDeliveryRatio: sp.SLO.MinDeliveryRatio,
		},
	}
	for _, j := range sp.Jets {
		k, ok := roles.KindByName(j.Role)
		if !ok {
			// Unreachable after Validate; kept as a belt against drift.
			return nil, fmt.Errorf("viator: unknown role %q", j.Role)
		}
		sc.jets = append(sc.jets, scenarioJet{at: j.At, kind: k, fanout: j.Fanout})
	}
	sc.zipf = make([]*workload.Zipf, len(sp.Traffic))
	per := sp.Ships / max(sp.Shards, 1)
	for i := range sp.Traffic {
		if sp.Traffic[i].Kind == scenario.TrafficHotspot {
			sc.zipf[i] = workload.NewZipf(per, sp.Traffic[i].Exponent)
		}
	}
	for t := sp.RowEvery; t <= sp.Horizon; t += sp.RowEvery {
		sc.rowAt = append(sc.rowAt, t)
	}
	return sc, nil
}

// ParseScenario parses, validates and compiles a spec in one step — the
// entry point for file-loaded scenarios (viatorbench -scenario).
func ParseScenario(data []byte) (*Scenario, error) {
	sp, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	return CompileScenario(sp)
}

// ScenarioRow is one checkpoint of a scenario run (the S1/S2 row shape).
type ScenarioRow struct {
	T          float64
	AliveFrac  float64 // fleet slots currently alive
	LinksUp    int     // directed radio links up at the checkpoint
	Delivered  uint64  // shuttles docked so far
	Lost       uint64  // shuttles lost so far (no route, drop, dead dock)
	Repairs    uint64  // self-healing resurrections so far
	Partitions uint64  // connectivity refreshes that left the fleet split
	Entropy    float64 // role differentiation across the alive fleet

	// QoS columns from the telemetry scorecard: cumulative default-flow
	// latency quantiles (milliseconds) and the SLO verdict (1 pass,
	// 0 fail) at the checkpoint.
	P50ms, P95ms, P99ms float64
	SLOOK               float64
}

// ScenarioResult is one run's trajectory, telemetry and verdicts.
type ScenarioResult struct {
	Title string
	Rows  []ScenarioRow
	// Dump is the run's exportable telemetry (recorder series, latency
	// and queue-depth histograms, QoS scorecards).
	Dump *telemetry.Dump
	// Verdicts are the spec's assertions evaluated against the finished
	// run, in spec order (flow assertions first, then scenario-level).
	Verdicts []scenario.Verdict
}

// Pass reports whether every assertion held.
func (r *ScenarioResult) Pass() bool { return scenario.AllPass(r.Verdicts) }

// Table renders the trajectory in the S1/S2 column layout.
func (r *ScenarioResult) Table() *stats.Table {
	t := stats.NewTable(r.Title,
		"t (s)", "alive frac", "links up", "delivered", "lost", "repairs", "partitions", "role entropy",
		"p50 (ms)", "p95 (ms)", "p99 (ms)", "SLO ok")
	for _, row := range r.Rows {
		t.AddRow(row.T, row.AliveFrac, row.LinksUp,
			float64(row.Delivered), float64(row.Lost),
			float64(row.Repairs), float64(row.Partitions), row.Entropy,
			row.P50ms, row.P95ms, row.P99ms, row.SLOOK)
	}
	return t
}

// inWindow gates an emission to the [start, stop) window; stop 0 means
// forever. Generators outside their window skip the slot without drawing
// from the RNG, so the gate itself is part of the deterministic replay.
func inWindow(now, start, stop float64) bool {
	return now >= start && (stop == 0 || now < stop)
}

// Run executes the scenario for one seed. Run is literally arm →
// advance-to-horizon → finish, the same three calls a live RunHandle
// (live.go) makes with observation pauses between the advance steps —
// one code path, so an observed run cannot diverge from a batch run by
// construction.
func (sc *Scenario) Run(seed uint64) *ScenarioResult {
	r := sc.arm(seed)
	r.advance(sc.Spec.Horizon)
	return r.finish()
}

// arm lowers the spec for one seed onto D = max(shards, 1) districts and
// returns the run paused at sim time zero: the districts in index order
// (see armDistrict), then the trunk mesh, then the checkpoint-row
// schedule. A (spec, seed, K) triple therefore fully determines the run,
// and the golden byte-identity tests pin the order.
func (sc *Scenario) arm(seed uint64) *shardedRun {
	sp := sc.Spec
	D := max(sp.Shards, 1)
	kernels := sc.shardKernels()
	r := &shardedRun{sc: sc, ds: make([]*shardDistrict, D), per: sp.Ships / D, dpk: D / kernels}
	// The kernel pick. One district runs on the kernel NewNetwork builds
	// from the seed, never on a one-shard group (which seeds its shard
	// from a draw of the seed and, with no trunk delay, steps in
	// lockstep), so unsharded output never depends on the shard machinery.
	var ks []*sim.Kernel
	if D == 1 {
		ks = []*sim.Kernel{sim.NewKernel(seed)}
	} else {
		r.group = sim.NewShardGroup(kernels, seed, sp.Trunk.Delay)
		for i := 0; i < kernels; i++ {
			ks = append(ks, r.group.Shard(i))
		}
	}
	for di := range r.ds {
		r.ds[di] = r.armDistrict(di, ks[r.kernelOf(di)], seed)
	}
	r.armTrunks()
	// Checkpoint schedule: every district snapshots itself on its own
	// kernel at each row time.
	for i, t := range sc.rowAt {
		for _, d := range r.ds {
			d.n.K.At(t, func() { r.checkpoint(d, i) })
		}
	}
	return r
}

// armDistrict builds district di on kernel k and arms it, always in the
// same sequence: arena, routing pulses, healing, telemetry, jets, the
// run-stream split, churn, traffic, cross-traffic, faults.
func (r *shardedRun) armDistrict(di int, k *sim.Kernel, seed uint64) *shardDistrict {
	sc, sp, per, D := r.sc, r.sc.Spec, r.per, len(r.ds)
	cfg := DefaultConfig(per, seed)
	cfg.Kernel = k
	cfg.UnfairFraction = sp.UnfairFraction
	// Radio-range topology from the arena's own positions; the default
	// Waxman generator would be far denser than a city radio mesh.
	g := topo.New()
	g.AddNodes(per)
	cfg.Graph = g
	base := di * per
	cfg.ClassOf = func(i int) ployon.Class { return ployon.Class((base + i) % int(ployon.NumClasses)) }
	n := NewNetwork(cfg)
	d := &shardDistrict{id: di, n: n, checks: make([]shardCheck, len(sc.rowAt))}

	switch sp.Arena.Kind {
	case scenario.ArenaMobile:
		d.model = mobility.NewRandomWaypoint(per, sp.Arena.Side,
			sp.Arena.MinSpeed, sp.Arena.MaxSpeed, sp.Arena.Pause, k.Rand.Split())
		d.mob = n.EnableMobility(d.model, sp.Arena.Radius, sp.Arena.Refresh)
		d.mob.RefreshNow()
	case scenario.ArenaStatic:
		// Positions are drawn once from their own split — the static
		// arena's analogue of the mobility model's stream — and the link
		// table is synthesized in one pass. No periodic refresh runs, so
		// injected link faults persist until a rejoin fault undoes them.
		prng := k.Rand.Split()
		d.pos = make([]topo.Point, per)
		for i := range d.pos {
			d.pos[i] = topo.Point{X: prng.Float64() * sp.Arena.Side, Y: prng.Float64() * sp.Arena.Side}
		}
		mobility.Connectivity(g, d.pos, sp.Arena.Radius)
	}
	n.Router.Pulse()
	n.StartPulses(sp.PulsePeriod)
	if sp.HealPeriod > 0 {
		d.healer = n.EnableSelfHealing(sp.HealPeriod)
	}

	// Telemetry: every district keeps the fixed-memory QoS sinks the row
	// columns and assertions read. The flight-recorder tick and its fleet
	// gauges run only for a single district, the one case with a
	// single-recorder export (ScenarioResult.Dump). Strictly observational
	// either way: the pre-telemetry columns replay byte-identical.
	tc := TelemetryConfig{SLO: sc.slo}
	if D == 1 {
		tc.Tick = sp.TelemetryTick
	}
	d.tel = n.EnableTelemetry(tc)
	if D == 1 {
		d.tel.Rec.Gauge("links.up", func() float64 { return float64(d.linksUp()) })
		if d.healer != nil {
			d.tel.Rec.CounterFn("healer.repairs", func() float64 { return float64(d.healer.Repairs) })
		}
	}

	// Role deployment: epidemic jets seed functional differentiation.
	for _, j := range sc.jets {
		if j.at/per == di {
			n.InjectJet(j.at%per, j.kind, j.fanout)
		}
	}

	// One shared stream for churn and every traffic generator, split
	// after the jets — the retired hand-written RunS1/RunS2 split order,
	// which the golden byte-identity tests pin.
	d.rng = k.Rand.Split()

	if c := sp.Churn; c != nil {
		// Each district churns one of its own ships every Period.
		k.Every(c.Period, func() {
			if !inWindow(k.Now(), c.Start, c.Stop) {
				return
			}
			i := d.rng.Intn(per)
			if n.Ships[i].State() == ship.Alive {
				n.KillShip(i)
			}
		})
	}
	for i := range sp.Traffic {
		r.armTraffic(d, &sp.Traffic[i], sc.zipf[i])
	}
	if ct := sp.CrossTraffic; ct != nil {
		k.Every(ct.Period, func() {
			if !inWindow(k.Now(), ct.Start, ct.Stop) {
				return
			}
			src := d.rng.Intn(per)
			dd := d.rng.Intn(D - 1)
			if dd >= di {
				dd++
			}
			r.sendCross(d, src, dd*per+d.rng.Intn(per), ct.Overlay)
		})
	}
	// Spec validation admits faults only for a single district, whose
	// local ship indices are the global ones.
	for _, f := range sp.Faults {
		k.At(f.At, func() { d.applyFault(f) })
	}
	return d
}

// finish seals a run that has reached the horizon: stops the pulse and
// telemetry tickers, folds the checkpoint rows, packages the telemetry
// dump (single district only) and evaluates the spec's assertions.
// Stepped (live) runs and batch runs end through this one epilogue.
func (r *shardedRun) finish() *ScenarioResult {
	for _, d := range r.ds {
		d.n.StopPulses()
		d.tel.Stop()
	}
	if len(r.ds) > 1 {
		for i := range r.sc.rowAt {
			r.rows = append(r.rows, r.fold(i))
		}
	}
	res := &ScenarioResult{Title: r.sc.Spec.Title, Rows: r.rows}
	if len(r.ds) == 1 {
		res.Dump = r.ds[0].tel.Dump()
	}
	res.Verdicts = r.evaluate()
	return res
}

// armTraffic arms one generator on district d over its local ships.
// Every per-slot closure draws only from the district's run stream and
// sends through the standard shuttle path, so generators compose without
// perturbing each other's schedules — only the stream consumption
// interleaves, deterministically. Random-pair generators run in every
// district; fixed-pair generators (onoff, cbr) run only in the district
// that owns the pair.
func (r *shardedRun) armTraffic(d *shardDistrict, tr *scenario.Traffic, zipf *workload.Zipf) {
	n, per, rng := d.n, r.per, d.rng
	k := n.K
	send := func(src, dst int) {
		n.SendShuttle(n.NewShuttle(shuttle.Data, src, dst), tr.Overlay)
	}
	gated := func() bool { return inWindow(k.Now(), tr.Start, tr.Stop) }
	switch tr.Kind {
	case scenario.TrafficUniform:
		k.Every(tr.Period, func() {
			if !gated() {
				return
			}
			src, dst := rng.Intn(per), rng.Intn(per)
			if src != dst {
				send(src, dst)
			}
		})
	case scenario.TrafficDistrict:
		tries := tr.Tries
		if tries == 0 {
			tries = 64
		}
		maxDist := tr.MaxDist
		k.Every(tr.Period, func() {
			if !gated() {
				return
			}
			src := rng.Intn(per)
			pos := d.positions()
			for try := 0; try < tries; try++ {
				dst := rng.Intn(per)
				if dst == src || pos[src].Dist(pos[dst]) > maxDist {
					continue
				}
				send(src, dst)
				break
			}
		})
	case scenario.TrafficPoisson:
		workload.Poisson(k, rng, tr.Rate, func(int) {
			if !gated() {
				return
			}
			src, dst := rng.Intn(per), rng.Intn(per)
			if src != dst {
				send(src, dst)
			}
		})
	case scenario.TrafficHotspot:
		k.Every(tr.Period, func() {
			if !gated() {
				return
			}
			src := rng.Intn(per)
			dst := zipf.Draw(rng)
			if src != dst {
				send(src, dst)
			}
		})
	case scenario.TrafficOnOff:
		if tr.Src/per != d.id {
			return
		}
		src, dst := tr.Src%per, tr.Dst%per
		workload.OnOff(k, rng, flowName(tr.Overlay),
			tr.Rate*float64(scenarioChunkBytes), tr.OnMean, tr.OffMean, scenarioChunkBytes,
			func(roles.Chunk) {
				if !gated() {
					return
				}
				send(src, dst)
			})
	case scenario.TrafficCBR:
		if tr.Src/per != d.id {
			return
		}
		src, dst := tr.Src%per, tr.Dst%per
		workload.CBR(k, flowName(tr.Overlay),
			tr.Rate*float64(scenarioChunkBytes), scenarioChunkBytes,
			func(roles.Chunk) {
				if !gated() {
					return
				}
				send(src, dst)
			})
	}
}

// scenarioChunkBytes sizes the workload-generator chunks whose cadence
// carries onoff/cbr shuttle traffic: Rate shuttles/s at this chunk size.
const scenarioChunkBytes = 1000

// applyFault injects one scheduled fault into the district. Faults that
// change the link table re-pulse the router immediately so traffic
// reacts at the fault instant rather than the next pulse tick.
func (d *shardDistrict) applyFault(f scenario.Fault) {
	n, g := d.n, d.n.G
	switch f.Kind {
	case scenario.FaultPartition, scenario.FaultRejoin:
		up := f.Kind == scenario.FaultRejoin
		for li := 0; li < g.Links(); li++ {
			l := g.Link(li)
			if (g.Pos(l.From).X < f.Cut) != (g.Pos(l.To).X < f.Cut) {
				g.SetUp(li, up)
			}
		}
		n.Router.Pulse()
	case scenario.FaultBlackout:
		center := topo.Point{X: f.X, Y: f.Y}
		pos := d.positions()
		for i, s := range n.Ships {
			if s.State() == ship.Alive && pos[i].Dist(center) <= f.R {
				n.KillShip(i)
			}
		}
	case scenario.FaultKillNode:
		if n.Ships[f.Node].State() == ship.Alive {
			n.KillShip(f.Node)
		}
	case scenario.FaultLinkDown, scenario.FaultLinkUp:
		up := f.Kind == scenario.FaultLinkUp
		if li := g.LinkBetween(topo.NodeID(f.From), topo.NodeID(f.To)); li >= 0 {
			g.SetUp(li, up)
		}
		if li := g.LinkBetween(topo.NodeID(f.To), topo.NodeID(f.From)); li >= 0 {
			g.SetUp(li, up)
		}
		n.Router.Pulse()
	}
}

// evaluate renders the spec's assertions against the finished run: flow
// SLO assertions against the run's scorecards first (spec order), then
// the scenario-level predicates over the summed district counters in
// grammar order. Verdict order and text depend only on the spec and the
// run state, never on evaluation timing.
func (r *shardedRun) evaluate() []scenario.Verdict {
	a := &r.sc.Spec.Asserts
	qos := r.qos()
	var out []scenario.Verdict
	for _, fa := range a.Flows {
		// Registering the flow on a single district's live set is part of
		// its exported Dump, which the telemetry goldens pin.
		f := qos.Flow(flowName(fa.Flow), r.sc.slo)
		rep := qos.Report(f)
		slo := telemetry.SLO{Quantile: fa.Quantile, MaxLatency: fa.MaxLatency, MinDeliveryRatio: fa.MinDeliveryRatio}
		pass := slo.Check(rep.Sent, rep.Delivered, qos.Latency(f))
		detail := fmt.Sprintf("delivered %d/%d (ratio %.3f)", rep.Delivered, rep.Sent, rep.DeliveryRatio)
		if fa.MaxLatency > 0 {
			q := qos.Latency(f).Quantile(fa.Quantile)
			detail += fmt.Sprintf(", p%v latency %.4gs (bound %.4gs)", fa.Quantile*100, q, fa.MaxLatency)
		}
		out = append(out, scenario.Verdict{
			Name:   fmt.Sprintf("flow %q slo", flowName(fa.Flow)),
			Pass:   pass,
			Detail: detail,
		})
	}
	t := r.totals()
	if a.MinDelivered > 0 {
		out = append(out, scenario.Verdict{
			Name: "min_delivered", Pass: t.delivered >= a.MinDelivered,
			Detail: fmt.Sprintf("delivered %d (floor %d)", t.delivered, a.MinDelivered),
		})
	}
	if a.MaxLossRatio > 0 {
		sum := t.delivered + t.lost
		ratio := 0.0
		if sum > 0 {
			ratio = float64(t.lost) / float64(sum)
		}
		out = append(out, scenario.Verdict{
			Name: "max_loss_ratio", Pass: ratio <= a.MaxLossRatio,
			Detail: fmt.Sprintf("loss ratio %.3f (cap %.3f)", ratio, a.MaxLossRatio),
		})
	}
	if a.MinAliveFrac > 0 {
		frac := t.aliveFrac()
		out = append(out, scenario.Verdict{
			Name: "min_alive_frac", Pass: frac >= a.MinAliveFrac,
			Detail: fmt.Sprintf("alive fraction %.3f (floor %.3f)", frac, a.MinAliveFrac),
		})
	}
	if a.MinRepairs > 0 {
		out = append(out, scenario.Verdict{
			Name: "min_repairs", Pass: t.repairs >= a.MinRepairs,
			Detail: fmt.Sprintf("repairs %d (floor %d)", t.repairs, a.MinRepairs),
		})
	}
	if a.MinExcluded > 0 {
		excluded := 0
		for _, d := range r.ds {
			excluded += d.n.Community.ExcludedCount()
		}
		out = append(out, scenario.Verdict{
			Name: "min_excluded", Pass: excluded >= a.MinExcluded,
			Detail: fmt.Sprintf("excluded %d (floor %d)", excluded, a.MinExcluded),
		})
	}
	return out
}

// ScenarioID is the registry-style identifier of a compiled scenario
// (the spec name, uppercased) — the key mixed into the replicate seed
// stream, so a spec named "s1" replicates with exactly the seeds the
// registry's S1 entry uses.
func (sc *Scenario) ScenarioID() string { return strings.ToUpper(sc.Spec.Name) }

// ScenarioReplicate is one replicate's outcome under RunScenarioReplicated.
type ScenarioReplicate struct {
	Seed uint64
	Res  *ScenarioResult
}

// RunScenarioReplicated runs the scenario reps times fanned over workers
// goroutines with the registry seed discipline (deterministic per-
// replicate seeds; reps == 1 replays baseSeed verbatim), returning the
// aggregated mean±CI table plus every replicate in replicate order —
// byte-identical output for any worker count.
func RunScenarioReplicated(sc *Scenario, reps int, baseSeed uint64, workers int) (*Replicated, []ScenarioReplicate, error) {
	if reps < 1 {
		return nil, nil, fmt.Errorf("viator: reps = %d, want >= 1", reps)
	}
	id := sc.ScenarioID()
	if k := sc.shardKernels(); k > 1 {
		// Worker-budget split: each sharded replicate already runs k shard
		// goroutines, so the replicate fan-out gets the remaining budget
		// (an execution decision only — seeds and results are computed
		// identically for any worker count; see sim.RunParallel docs).
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = max(1, workers/k)
	}
	runs := sim.RunParallel(reps, replicateSeed(baseSeed, id), workers, func(i int, seed uint64) ScenarioReplicate {
		if reps == 1 {
			seed = baseSeed
		}
		return ScenarioReplicate{Seed: seed, Res: sc.Run(seed)}
	})
	seeds := make([]uint64, len(runs))
	tables := make([]*Table, len(runs))
	for i, run := range runs {
		seeds[i] = run.Seed
		tables[i] = run.Res.Table()
	}
	agg, err := aggregateReplicates(id, sc.Spec.Title, reps, baseSeed, seeds, tables)
	if err != nil {
		return nil, nil, err
	}
	return agg, runs, nil
}

// Embedded builtin specs: the stress scenarios S1 and S2, expressed in
// the DSL. The registry compiles them at init, so "the S1 the paper
// tables cite" and "the s1.json a user edits" can never drift apart.
//
//go:embed scenarios/s1.json scenarios/s2.json scenarios/s3.json scenarios/s3_smoke.json
var builtinSpecFS embed.FS

// mustLoadBuiltin compiles one embedded spec; failures are programming
// errors in the shipped JSON and panic at init.
func mustLoadBuiltin(path string) *Scenario {
	data, err := builtinSpecFS.ReadFile(path)
	if err != nil {
		panic(err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		panic(err)
	}
	return sc
}

// scenarioS1/S2/S3/S3S are the compiled builtin stress scenarios behind
// the registry's S1/S2/S3/S3S entries. S3 is the sharded "continent"
// (100k ships, heavy class: explicit -only S3 runs only); S3S is its
// CI-sized smoke variant and the base the shard benchmarks sweep.
var (
	scenarioS1  = mustLoadBuiltin("scenarios/s1.json")
	scenarioS2  = mustLoadBuiltin("scenarios/s2.json")
	scenarioS3  = mustLoadBuiltin("scenarios/s3.json")
	scenarioS3S = mustLoadBuiltin("scenarios/s3_smoke.json")
)

// ScenarioS3Smoke exposes the compiled smoke-scale continent scenario
// for the shard benchmark suite (internal/benchprobe bodies run it at
// several -shards settings).
func ScenarioS3Smoke() *Scenario { return scenarioS3S }

// ScenarioS3 exposes the full continent scenario (heavy class).
func ScenarioS3() *Scenario { return scenarioS3 }
