package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"viator"
	"viator/internal/scenario"
	"viator/internal/telemetry"
)

// env is what a workload is prepared from.
type env struct {
	root  string
	seed  uint64
	smoke bool // short-horizon variant for the self-tests
}

// repOut is one repetition of a workload: its timings, its allocation,
// the output the checker compares and the deterministic work counts the
// determinism sentinel compares across repetitions.
type repOut struct {
	setups     []float64 // set-up times in seconds: one per run set up, or per registry build
	run        time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
	liveHeap   uint64

	output   string   // canonical output, compared with what is expected
	digest   string   // the output's SHA-256, which replaces it once checked
	failures []string // failed verdicts and malformed outputs
	counts   map[string]float64

	ops, opsFailed int // HTTP requests beside the run itself, and the non-2xx among them
	scrapes        int
	scrapeLate     []time.Duration // how late the open-loop scraper sent each request

	traced bool
}

// countNames are the deterministic work counts, in report order. A
// workload fills those its public outputs expose and leaves the rest 0.
var countNames = []string{
	"viator.shuttles_delivered",
	"viator.shuttles_lost",
	"netsim.packets_delivered",
	"netsim.packets_dropped",
	"routing.pulse_gate_hits",
	"mobility.links_up",
	"serve.stream_lines",
	"serve.scrapes",
}

// workload is one named benchmark input. prepare reads and builds its
// inputs once per process and returns the function that runs one
// repetition.
type workload struct {
	name    string
	prepare func(e *env) (func(tr *tracer) (*repOut, error), error)
}

var workloads = []workload{
	{name: "s2_district", prepare: prepareS2},
	{name: "s1_served", prepare: prepareServed},
	{name: "s3s_k2", prepare: prepareS3S},
	{name: "catalog", prepare: prepareCatalog},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// loadSpec reads a builtin spec from the checkout's scenarios directory
// and overrides top-level fields.
func loadSpec(root, file string, override map[string]any) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(root, "scenarios", file))
	if err != nil {
		return nil, err
	}
	if len(override) == 0 {
		return data, nil
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	for k, v := range override {
		doc[k] = v
	}
	return json.Marshal(doc)
}

// meter reads the runtime's allocation and GC counters around a run.
type meter struct{ m0 runtime.MemStats }

func (m *meter) begin() { runtime.ReadMemStats(&m.m0) }

func (m *meter) end(o *repOut) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	o.allocBytes = m1.TotalAlloc - m.m0.TotalAlloc
	o.mallocs = m1.Mallocs - m.m0.Mallocs
	o.gcCycles = m1.NumGC - m.m0.NumGC
	o.gcPause = time.Duration(m1.PauseTotalNs - m.m0.PauseTotalNs)
}

// liveHeap forces a collection and returns the bytes it found live.
// Callers keep the run reachable across the call.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// verdictFailures lists every failed assertion of a scenario result.
func verdictFailures(vs []scenario.Verdict) []string {
	var out []string
	for _, v := range vs {
		if !v.Pass {
			out = append(out, fmt.Sprintf("verdict %s failed: %s", v.Name, v.Detail))
		}
	}
	return out
}

// seriesLast reads the recorder last-values (viator_series_last) from a
// Prometheus exposition, keyed by series name and summed over runs.
func seriesLast(prom []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(prom), "\n") {
		if !strings.HasPrefix(line, "viator_series_last{") {
			continue
		}
		i := strings.Index(line, `name="`)
		sp := strings.LastIndexByte(line, ' ')
		if i < 0 || sp < 0 {
			continue
		}
		name := line[i+len(`name="`):]
		name = name[:strings.IndexByte(name, '"')]
		var v float64
		if _, err := fmt.Sscan(line[sp+1:], &v); err == nil {
			out[name] += v
		}
	}
	return out
}

// seriesCounts maps the recorder series a scenario exports onto the
// deterministic work counts.
func seriesCounts(last map[string]float64, counts map[string]float64) {
	counts["netsim.packets_delivered"] = last["packets_delivered"]
	counts["netsim.packets_dropped"] = last["packets_dropped"]
	counts["routing.pulse_gate_hits"] = last["router_pulse_gate_hits"]
}

// prepareS2 is the builtin S2 megalopolis run batch: ParseScenario and
// StartScenario as set-up, then StepTo every telemetry tick with a
// Status read at each pause, then Finish.
func prepareS2(e *env) (func(*tracer) (*repOut, error), error) {
	var over map[string]any
	if e.smoke {
		over = map[string]any{"horizon": 1.0}
	}
	spec, err := loadSpec(e.root, "s2.json", over)
	if err != nil {
		return nil, err
	}
	return func(tr *tracer) (*repOut, error) { return batchRep(tr, spec, e.seed, 0) }, nil
}

// prepareS3S is the builtin S3S continent smoke on the sharded path with
// two shard kernels.
func prepareS3S(e *env) (func(*tracer) (*repOut, error), error) {
	var over map[string]any
	if e.smoke {
		over = map[string]any{"horizon": 1.0, "row_every": 0.5}
	}
	spec, err := loadSpec(e.root, "s3_smoke.json", over)
	if err != nil {
		return nil, err
	}
	return func(tr *tracer) (*repOut, error) { return batchRep(tr, spec, e.seed, 2) }, nil
}

// batchRep runs one scenario through the stepped public API and renders
// its result the way an exporter would.
func batchRep(tr *tracer, spec []byte, seed uint64, shards int) (*repOut, error) {
	viator.SetShardOverride(shards)
	defer viator.SetShardOverride(0)
	o := &repOut{counts: map[string]float64{}}
	var m meter
	root := tr.begin("rep", -1)
	m.begin()
	t0 := time.Now()
	sp := tr.begin("compile", root)
	sc, err := viator.ParseScenario(spec)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("arm", root)
	h := viator.StartScenario(sc, seed)
	tr.end(sp)
	t1 := time.Now()
	tick := sc.Spec.TelemetryTick
	if tick <= 0 {
		tick = 0.5 // the live server's default publication period
	}
	var st viator.LiveStatus
	for k := 1; !h.Done(); k++ {
		sp = tr.begin("step", root)
		h.StepTo(float64(k) * tick)
		tr.end(sp)
		sp = tr.begin("status", root)
		st = h.Status()
		tr.end(sp)
	}
	sp = tr.begin("finish", root)
	res := h.Finish()
	tr.end(sp)
	t2 := time.Now()
	m.end(o)
	o.setups, o.run = []float64{t1.Sub(t0).Seconds()}, t2.Sub(t1)
	o.liveHeap = liveHeap()
	runtime.KeepAlive(h)

	sp = tr.begin("render", root)
	o.output = res.Table().String()
	var prom []byte
	if res.Dump != nil {
		var jl, pb bytes.Buffer
		if err := res.Dump.WriteJSONL(&jl, ""); err != nil {
			return nil, err
		}
		if err := telemetry.WritePromFamilies(&pb, telemetry.PromFamilies(res.Dump, `run="bench"`)); err != nil {
			return nil, err
		}
		prom = pb.Bytes()
	}
	tr.end(sp)
	tr.end(root)

	o.failures = verdictFailures(res.Verdicts)
	if len(res.Rows) == 0 {
		o.failures = append(o.failures, "result has no rows")
	} else {
		last := res.Rows[len(res.Rows)-1]
		o.counts["viator.shuttles_delivered"] = float64(last.Delivered)
		o.counts["viator.shuttles_lost"] = float64(last.Lost)
		o.counts["mobility.links_up"] = float64(last.LinksUp)
		if last.Delivered != st.Delivered || last.Lost != st.Lost {
			o.failures = append(o.failures, fmt.Sprintf("final status reports %d/%d shuttles delivered/lost, final row %d/%d",
				st.Delivered, st.Lost, last.Delivered, last.Lost))
		}
	}
	if prom != nil {
		seriesCounts(seriesLast(prom), o.counts)
	}
	return o, nil
}

// catalogIDs is the paper catalog: the twelve experiments and the four
// ablation sweeps.
var catalogIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "A1", "A2", "A3", "A4"}

const (
	catalogSeed   = 42  // base seed of every catalog run: the paper tables' seed
	catalogReps   = 3   // replicates per experiment, on one worker
	registryBuild = 101 // registry builds per repetition, each a set-up sample
)

// prepareCatalog runs the E/A catalog through Registry.RunReplicated, one
// experiment per call so each gets its own span. The experiments' own
// seeds are fixed at catalogSeed: A2 runs until its fleet is covered, so
// its cost varies by a quarter from seed to seed, more than any bound
// the benchmark could hold. The benchmark seed instead sets the order
// the experiments run in; the output, assembled in catalog order, must
// not depend on it.
func prepareCatalog(e *env) (func(*tracer) (*repOut, error), error) {
	ids, reps := catalogIDs, catalogReps
	if e.smoke {
		ids, reps = []string{"E1", "E3", "E7", "E12", "A1"}, 1
	}
	order := permutation(e.seed, len(ids))
	return func(tr *tracer) (*repOut, error) {
		o := &repOut{counts: map[string]float64{}}
		var m meter
		root := tr.begin("rep", -1)
		m.begin()
		// Set-up is building and resolving the registry. It takes tens of
		// microseconds, so it is repeated and every build reported.
		var reg *viator.Registry
		o.setups = make([]float64, registryBuild)
		for i := range o.setups {
			t := time.Now()
			reg = viator.DefaultRegistry()
			if _, err := reg.Resolve(ids); err != nil {
				return nil, err
			}
			o.setups[i] = time.Since(t).Seconds()
		}
		t1 := time.Now()
		results := make([]*viator.Replicated, len(ids))
		for _, i := range order {
			sp := tr.begin("catalog."+ids[i], root)
			out, err := reg.RunReplicated([]string{ids[i]}, reps, catalogSeed, 1)
			tr.end(sp)
			if err != nil {
				o.failures = append(o.failures, fmt.Sprintf("%s: %v", ids[i], err))
				continue
			}
			results[i] = out[0]
		}
		o.run = time.Since(t1)
		m.end(o)
		o.liveHeap = liveHeap()
		runtime.KeepAlive(results)

		sp := tr.begin("render", root)
		var b strings.Builder
		for _, r := range results {
			if r != nil {
				b.WriteString(r.Table().String())
			}
		}
		tr.end(sp)
		tr.end(root)
		o.output = b.String()
		return o, nil
	}, nil
}

// permutation returns a seeded Fisher-Yates shuffle of 0..n-1.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r := expandSeed(seed, n)
	for i := n - 1; i > 0; i-- {
		j := int(r[i] % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
