package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// endToEnd reports the medians over all repetitions. Set-up is the
// median over every set-up sample of every repetition, so a workload that
// sets up several runs per repetition reports a steadier figure.
func endToEnd(reps []*repOut, m map[string]metric) {
	col := func(f func(r *repOut) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.setups...)
	}
	m["setup_s"] = metric{median(setups), "s"}
	m["run_s"] = metric{col(func(r *repOut) float64 { return r.run.Seconds() }), "s"}
	m["alloc_mb"] = metric{col(func(r *repOut) float64 { return float64(r.allocBytes) / 1e6 }), "MB"}
	m["allocs_k"] = metric{col(func(r *repOut) float64 { return float64(r.mallocs) / 1e3 }), "count/1000"}
	m["live_heap_mb"] = metric{col(func(r *repOut) float64 { return float64(r.liveHeap) / 1e6 }), "MB"}
}

// spanMetrics maps each span-derived per-layer metric to its span name
// and statistic.
var spanMetrics = []struct {
	metric, span string
	q            float64 // quantile over every span of the name; 1 is the maximum
}{
	{"span.compile_ms", "compile", 0.5},
	{"span.arm_ms", "arm", 0.5},
	{"span.step_p50_ms", "step", 0.5},
	{"span.step_max_ms", "step", 1},
	{"span.status_ms", "status", 0.5},
	{"span.finish_ms", "finish", 0.5},
	{"span.render_ms", "render", 0.5},
	{"span.http_start_ms", "http_start", 0.5},
	{"span.http_metrics_p50_ms", "http_metrics", 0.5},
	{"span.http_metrics_p99_ms", "http_metrics", 0.99},
	{"span.http_status_ms", "http_status", 0.5},
}

// perLayer reports the traced repetitions' spans, profile shares, GC
// activity, work counts and the tracing overhead. A span a workload never
// makes, or a layer it never reaches, reads 0.
func perLayer(reps []*repOut, tr *tracer, prof *profiler, m map[string]metric, out io.Writer) error {
	for _, s := range spanMetrics {
		m[s.metric] = metric{quantile(tr.durations(s.span), s.q), "ms"}
	}
	for _, id := range catalogIDs {
		m["catalog."+id+"_ms"] = metric{median(tr.durations("catalog." + id)), "ms"}
	}
	cpu, err := prof.cpuShares()
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		m["cpu."+l] = metric{cpu[l], "share"}
	}
	alloc, err := prof.allocShares()
	if err != nil {
		return err
	}
	for _, l := range allocLayers {
		m["alloc."+l] = metric{alloc[l], "share"}
	}
	for _, pkg := range prof.unknownPackages() {
		fmt.Fprintf(out, "package %s is missing from the layer table; attributed to other\n", pkg)
	}

	var traced, untraced, cycles, pause []float64
	var late []float64
	for _, r := range reps {
		if !r.traced {
			untraced = append(untraced, r.run.Seconds())
			continue
		}
		traced = append(traced, r.run.Seconds())
		cycles = append(cycles, float64(r.gcCycles))
		pause = append(pause, ms(r.gcPause))
		for _, d := range r.scrapeLate {
			late = append(late, ms(d))
		}
	}
	m["gc.cycles"] = metric{median(cycles), "count"}
	m["gc.pause_ms"] = metric{median(pause), "ms"}
	m["serve.scrape_late_p50_ms"] = metric{quantile(late, 0.5), "ms"}
	m["serve.scrape_late_max_ms"] = metric{quantile(late, 1), "ms"}
	overhead := 0.0
	if len(untraced) > 0 {
		overhead = median(traced)/median(untraced) - 1
	}
	m["trace.overhead_frac"] = metric{overhead, "ratio"}
	for _, n := range countNames {
		m[n] = metric{reps[0].counts[n], "count"}
	}
	return nil
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics, 0 for an empty v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
