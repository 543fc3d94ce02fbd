// Command e2ebench is Viator's end-to-end benchmark. It runs one workload
// through the simulator's public entry points for a fixed wall-clock
// budget, checks every output, and prints one metric per line followed by
// a single JSON result line:
//
//	bash e2ebench/run.sh --workload s2_district --seed 42 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (set-up and
// run time, allocation, live heap). With --trace 1 every other repetition
// runs under a CPU profile with in-memory spans around each public call,
// and the result carries the per-layer metrics instead: span times,
// self-time and allocation shares by package, GC counts and the
// deterministic work counts, plus the tracing overhead. NOTES.md explains
// the workloads, the metrics and the first baseline.
//
// All wall-clock and profiling code lives here, outside the determinism
// lint scope; the simulator is driven only through viator.ParseScenario,
// StartScenario, RunHandle, SetShardOverride, RunReplicated, the
// telemetry renderers and internal/serve over loopback HTTP.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one benchmark process.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // Viator checkout root: specs and goldens are read from here
	digests  string // expected-output digest file
	spansDir string // where the traced run writes its spans; "" keeps them in memory only
	record   bool   // store this run's output digest instead of checking it
	smoke    bool   // shrink every workload to a short horizon (self-tests)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 42, "simulation seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "wall-clock budget for the measured repetitions")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "root of the Viator checkout")
	flag.StringVar(&o.spansDir, "spans-dir", "", "directory for the traced run's span file")
	flag.BoolVar(&o.record, "record", false, "record this seed's output digest instead of checking it")
	flag.Parse()
	o.trace = *traceFlag != 0
	o.digests = filepath.Join(o.root, "e2ebench", "digests.json")
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark process: prepare the workload, repeat it
// until the budget is spent, check every repetition and aggregate the
// metrics. Human-readable lines go to out; the caller prints the result.
func run(o options, out io.Writer) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	exp, err := loadExpected(o)
	if err != nil {
		return nil, err
	}
	env := &env{root: o.root, seed: o.seed, smoke: o.smoke}
	repeat, err := w.prepare(env)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Fprintf(out, "workload %s seed %d budget %gs trace %v GOMAXPROCS %d\n",
		w.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))

	tr := newTracer()
	var prof profiler
	if o.trace {
		if err := prof.heapBefore(); err != nil {
			return nil, err
		}
	}
	res := &result{Metrics: map[string]metric{}}
	var reps []*repOut
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	var longest time.Duration
	minReps := 1
	if o.trace {
		minReps = 2 // one traced and one untraced, for the tracing overhead
	}
	for i := 0; ; i++ {
		// Start another repetition only if it is expected to end within
		// the budget.
		if el := time.Since(start); i >= minReps && el+longest > budget {
			break
		}
		traced := o.trace && i%2 == 0
		runtime.GC() // every repetition starts from the same empty heap
		repStart := time.Now()
		if traced {
			tr.enable(true)
			if err := prof.startCPU(); err != nil {
				return nil, err
			}
		}
		rep, err := repeat(tr)
		if traced {
			prof.stopCPU()
			tr.enable(false)
		}
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, i, err)
		}
		rep.traced = traced
		reps = append(reps, rep)
		checkRep(w.name, o, exp, i, rep, reps[0], res, out)
		if d := time.Since(repStart); d > longest {
			longest = d
		}
	}

	for i, r := range reps {
		fmt.Fprintf(out, "repetition %d traced %v setup %.4fs run %.4fs alloc %.1fMB allocs %d live %.1fMB\n",
			i, r.traced, median(r.setups), r.run.Seconds(), float64(r.allocBytes)/1e6, r.mallocs, float64(r.liveHeap)/1e6)
	}
	res.Correct = res.Failed == 0
	if o.record && res.Correct {
		if err := recordDigest(o, w.name, reps[0].digest); err != nil {
			return nil, err
		}
	}
	if o.trace {
		if err := prof.heapAfter(); err != nil {
			return nil, err
		}
		if err := perLayer(reps, tr, &prof, res.Metrics, out); err != nil {
			return nil, err
		}
		if o.spansDir != "" {
			path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
			if err := tr.writeFile(path); err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "spans written to %s\n", path)
		}
	} else {
		endToEnd(reps, res.Metrics)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "metric %-32s %14.6f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "repetitions %d attempted %d failed %d failed_frac %g correct %v\n",
		len(reps), res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Correct)
	return res, nil
}
