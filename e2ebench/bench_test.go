package main

import (
	"encoding/json"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"viator"
)

// benchmarkFile is the part of BENCHMARK.json the self-tests pin.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// emptyDigests writes a digest file with no entries, so smoke outputs are
// checked for verdicts and determinism only.
func emptyDigests(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "digests.json")
	if err := os.WriteFile(path, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 7, seconds: 0.01, trace: trace,
		root: "..", digests: emptyDigests(t), smoke: true,
	}
}

// TestSmoke runs every workload on a short horizon, untraced and traced,
// and checks the result carries exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equalSets(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := run(smokeOptions(t, w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			var got, listed []string
			for n := range res.Metrics {
				got = append(got, n)
			}
			for _, m := range want {
				listed = append(listed, m.Name)
				if r, ok := res.Metrics[m.Name]; ok && r.Unit != m.Unit {
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w, m.Name, r.Unit, m.Unit)
				}
				if !trace && !(res.Metrics[m.Name].Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, res.Metrics[m.Name].Value)
				}
			}
			if !equalSets(got, listed) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json lists %v", w, trace, got, listed)
			}
		}
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCorruptDigestFails checks that a wrong expected digest fails every
// repetition, so failed_frac reaches 1.
func TestCorruptDigestFails(t *testing.T) {
	o := smokeOptions(t, "catalog", false)
	o.seconds = 0.5 // a few repetitions
	bad := `{"catalog": {"42": "0000000000000000000000000000000000000000000000000000000000000000"}}`
	if err := os.WriteFile(o.digests, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("correct=%v failed=%d attempted=%d, want every attempt failed", res.Correct, res.Failed, res.Attempted)
	}
}

// TestRecordThenCheck records a smoke digest and checks a second run
// against it.
func TestRecordThenCheck(t *testing.T) {
	o := smokeOptions(t, "s3s_k2", false)
	o.record = true
	if res, err := run(o, io.Discard); err != nil || !res.Correct {
		t.Fatalf("record: %v %+v", err, res)
	}
	o.record = false
	res, err := run(o, io.Discard)
	if err != nil || !res.Correct {
		t.Fatalf("check: %v %+v", err, res)
	}
}

// TestAttributionSumsToOne profiles a short scenario and checks the CPU
// and allocation shares each sum to 1 with no viator package unattributed.
func TestAttributionSumsToOne(t *testing.T) {
	spec, err := loadSpec("..", "s1.json", map[string]any{"horizon": 2.0})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := viator.ParseScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	var p profiler
	if err := p.heapBefore(); err != nil {
		t.Fatal(err)
	}
	if err := p.startCPU(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		viator.StartScenario(sc, uint64(i)).Finish()
	}
	p.stopCPU()
	if err := p.heapAfter(); err != nil {
		t.Fatal(err)
	}
	for name, get := range map[string]func() (map[string]float64, error){"cpu": p.cpuShares, "alloc": p.allocShares} {
		shares, err := get()
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range shares {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s shares sum to %v: %v", name, sum, shares)
		}
		if shares["topo"] <= 0 {
			t.Errorf("%s: no share attributed to topo: %v", name, shares)
		}
	}
	if u := p.unknownPackages(); len(u) > 0 {
		t.Errorf("packages missing from the layer table: %v", u)
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack       []string
		gc          bool
		layer, unkn string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "viator/internal/topo.(*Graph).Connect"}, true, "gc", ""},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "viator/internal/topo.(*Graph).Connect"}, false, "topo", ""},
		{[]string{"sort.insertionSort", "sort.Slice", "viator/internal/netsim.(*Net).syncLinks.func2"}, true, "netsim", ""},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, true, "other", ""},
		{[]string{"viator.(*Network).Run"}, true, "viator", ""},
		{[]string{"viator/internal/sim.(*heap[go.shape.*uint8]).push"}, true, "sim", ""},
		{[]string{"viator/internal/newpkg.F"}, true, "other", "viator/internal/newpkg"},
	} {
		l, u := attribute(c.stack, c.gc)
		if l != c.layer || u != c.unkn {
			t.Errorf("attribute(%v, %v) = %q, %q; want %q, %q", c.stack, c.gc, l, u, c.layer, c.unkn)
		}
	}
}

// TestLayerTableCoversInternal fails when a package anywhere under
// internal/ is missing from the layer table, or a layer has no
// cpu.<layer> metric. A package is a directory holding .go files; like the
// go tool, the walk skips testdata and directories named with a leading
// "." or "_".
func TestLayerTableCoversInternal(t *testing.T) {
	err := filepath.WalkDir("../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			return filepath.SkipDir
		}
		if gos, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gos) == 0 {
			return nil
		}
		pkg := "viator/" + filepath.ToSlash(strings.TrimPrefix(path, "../"))
		if _, ok := layerOf[pkg]; !ok {
			t.Errorf("%s is missing from layerOf", pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	for pkg, l := range layerOf {
		if !known[l] {
			t.Errorf("%s maps to layer %q, which cpuLayers lacks", pkg, l)
		}
	}
}

// TestServedMatchesBatch checks the served path end to end: the tables the
// live server returns equal batch runs of the same specs and seeds.
func TestServedMatchesBatch(t *testing.T) {
	e := &env{root: "..", seed: 7, smoke: true}
	repeat, err := prepareServed(e)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repeat(newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.failures) > 0 || rep.opsFailed > 0 {
		t.Fatalf("served repetition failed: %v (%d failed requests)", rep.failures, rep.opsFailed)
	}
	spec, err := loadSpec("..", "s1.json", map[string]any{"horizon": 2.0})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := viator.ParseScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, seed := range expandSeed(e.seed, servedRuns) {
		want += viator.StartScenario(sc, seed).Finish().Table().String()
	}
	if rep.output != want {
		t.Fatalf("served tables differ from batch runs:\n%s\nwant:\n%s", rep.output, want)
	}
}
