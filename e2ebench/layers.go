package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// layerOf is the one package→layer table. Layers are the module's package
// names; CPU and allocation samples are attributed through it. A viator
// package missing here is attributed to "other" and named in the output,
// and TestLayerTableCoversInternal fails until it is added.
var layerOf = map[string]string{
	"viator":                    "viator", // experiment catalog, scenario compiler, live handles
	"viator/internal/sim":       "sim",
	"viator/internal/mobility":  "mobility",
	"viator/internal/topo":      "topo",
	"viator/internal/routing":   "routing",
	"viator/internal/netsim":    "netsim",
	"viator/internal/cluster":   "cluster",
	"viator/internal/feedback":  "feedback",
	"viator/internal/metamorph": "metamorph",
	"viator/internal/roles":     "roles",
	"viator/internal/resonance": "resonance",
	"viator/internal/kq":        "kq",
	"viator/internal/ship":      "ship",
	"viator/internal/shuttle":   "shuttle",
	"viator/internal/ployon":    "ployon",
	"viator/internal/nodeos":    "nodeos",
	"viator/internal/vm":        "vm",
	"viator/internal/hw":        "hw",
	"viator/internal/telemetry": "telemetry",
	"viator/internal/stats":     "stats",
	"viator/internal/trace":     "trace",
	"viator/internal/serve":     "serve",
	"viator/internal/baseline":  "baseline",
	"viator/internal/mc":        "mc",
	"viator/internal/spec":      "spec",
	"viator/internal/scenario":  "scenario",
	"viator/internal/workload":  "workload",
	// The benchmark's own load generation, and test and measurement
	// helpers that no workload reaches.
	"viator/e2ebench":               "other",
	"viator/internal/allocpin":      "other",
	"viator/internal/benchprobe":    "other",
	"viator/internal/lint":          "other",
	"viator/internal/lint/linttest": "other",
}

// cpuLayers are the layers reported as cpu.<layer> self-time shares, in
// report order: control plane and physical layer, principle engines, ship
// components, telemetry and serving, the root package and helpers, then
// the runtime's allocator and collector and everything else.
var cpuLayers = []string{
	"sim", "mobility", "topo", "routing", "netsim",
	"cluster", "feedback", "metamorph", "roles", "resonance", "kq",
	"ship", "shuttle", "ployon", "nodeos", "vm", "hw",
	"telemetry", "stats", "trace", "serve",
	"viator", "baseline", "mc", "spec", "scenario", "workload",
	"gc", "other",
}

// allocLayers are the layers reported as alloc.<layer> shares; every
// other layer's bytes count as alloc.other.
var allocLayers = []string{
	"topo", "netsim", "mobility", "routing", "ship", "nodeos", "vm",
	"telemetry", "serve", "viator", "other",
}

// funcPackage returns the import path of a symbol name such as
// "viator/internal/topo.(*CostOverlay).ComputeOverlayInto".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments hold dots too
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// gcFuncs are the runtime entry points of allocation, collection and the
// write barrier.
var gcFuncs = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.makemap", "runtime.growslice", "runtime.gc", "runtime.GC", "runtime.mark",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.findObject", "runtime.sweepone", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.(*gcWork)", "runtime.(*gcBits)",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mspan)",
	"runtime.(*sweepLocked)", "runtime.(*pageAlloc)", "runtime.(*scavenger",
}

// attribute returns the layer a sample's stack (leaf first) belongs to.
// With gc set, runtime frames at the leaf that are inside the allocator
// or the collector make it "gc". Otherwise the leaf-most frame in a viator
// package decides, so standard-library helpers count for the package that
// called them. unknown names a viator package missing from layerOf.
func attribute(stack []string, gc bool) (layer, unknown string) {
	i := 0
	for ; i < len(stack); i++ {
		if !isRuntime(funcPackage(stack[i])) {
			break
		}
		if gc {
			for _, p := range gcFuncs {
				if strings.HasPrefix(stack[i], p) {
					return "gc", ""
				}
			}
		}
	}
	for ; i < len(stack); i++ {
		pkg := funcPackage(stack[i])
		if pkg != "viator" && !strings.HasPrefix(pkg, "viator/") {
			continue
		}
		if l, ok := layerOf[pkg]; ok {
			return l, ""
		}
		return "other", pkg
	}
	return "other", ""
}

// shares attributes every sample of type typ and returns each layer's
// share of the total, plus the unknown viator packages seen.
func shares(p *profile, typ string, gc bool, into map[string]float64, unknown map[string]bool) (int64, error) {
	vi, err := p.valueIndex(typ)
	if err != nil {
		return 0, err
	}
	var total int64
	p.each(vi, func(stack []string, v int64) {
		l, u := attribute(stack, gc)
		if u != "" {
			unknown[u] = true
		}
		into[l] += float64(v)
		total += v
	})
	return total, nil
}

// profiler collects the traced repetitions' CPU profiles and the
// allocation profile around the whole measurement.
type profiler struct {
	cur     *bytes.Buffer
	cpu     [][]byte
	heap0   []byte
	heap1   []byte
	unknown map[string]bool
}

func (p *profiler) startCPU() error {
	p.cur = new(bytes.Buffer)
	return pprof.StartCPUProfile(p.cur)
}

func (p *profiler) stopCPU() {
	pprof.StopCPUProfile()
	p.cpu = append(p.cpu, p.cur.Bytes())
}

// heapSnapshot returns the cumulative allocation profile, current as of a
// fresh collection.
func heapSnapshot() ([]byte, error) {
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&b, 0); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func (p *profiler) heapBefore() error {
	var err error
	p.heap0, err = heapSnapshot()
	return err
}

func (p *profiler) heapAfter() error {
	var err error
	p.heap1, err = heapSnapshot()
	return err
}

// cpuShares attributes the CPU samples of every traced repetition.
func (p *profiler) cpuShares() (map[string]float64, error) {
	byLayer := map[string]float64{}
	var total int64
	for _, raw := range p.cpu {
		prof, err := parseProfile(raw)
		if err != nil {
			return nil, err
		}
		n, err := shares(prof, "cpu", true, byLayer, p.unknownSet())
		if err != nil {
			return nil, err
		}
		total += n
	}
	return normalize(byLayer, total), nil
}

// allocShares attributes the bytes allocated between heapBefore and
// heapAfter, folding layers without an alloc metric into "other".
func (p *profiler) allocShares() (map[string]float64, error) {
	before, after := map[string]float64{}, map[string]float64{}
	var totals [2]int64
	for i, raw := range [][]byte{p.heap0, p.heap1} {
		prof, err := parseProfile(raw)
		if err != nil {
			return nil, err
		}
		into := before
		if i == 1 {
			into = after
		}
		if totals[i], err = shares(prof, "alloc_space", false, into, p.unknownSet()); err != nil {
			return nil, err
		}
	}
	reported := map[string]bool{}
	for _, l := range allocLayers {
		reported[l] = true
	}
	delta := map[string]float64{}
	for l, v := range after {
		d := v - before[l]
		if !reported[l] {
			l = "other"
		}
		delta[l] += d
	}
	return normalize(delta, totals[1]-totals[0]), nil
}

func (p *profiler) unknownSet() map[string]bool {
	if p.unknown == nil {
		p.unknown = map[string]bool{}
	}
	return p.unknown
}

// unknownPackages lists the viator packages attributed to "other" because
// layerOf lacks them.
func (p *profiler) unknownPackages() []string {
	var out []string
	for pkg := range p.unknown {
		out = append(out, pkg)
	}
	sort.Strings(out)
	return out
}

func normalize(m map[string]float64, total int64) map[string]float64 {
	out := map[string]float64{}
	if total <= 0 {
		return out
	}
	for l, v := range m {
		out[l] = v / float64(total)
	}
	return out
}
