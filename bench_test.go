package viator_test

import (
	"testing"

	"viator"
	"viator/internal/benchprobe"
)

// One benchmark per paper artifact, enumerated from the registry so the
// benchmark set can never drift from what the harness runs: `go test
// -bench=Experiment` regenerates every table and figure. The per-op cost
// is the cost of reproducing that artifact end to end.

func BenchmarkExperiment(b *testing.B) {
	for _, e := range viator.DefaultRegistry().Experiments() {
		if e.Heavy {
			continue // continent-scale; benchmarked via the shard suite instead
		}
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Check(e.Run(42)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSuite runs the micro-benchmark table of internal/benchprobe,
// one sub-benchmark per suite and row: `go test -bench 'Suite/<suite>/'`
// runs exactly the rows `viatorbench -bench <suite>` emits.
func BenchmarkSuite(b *testing.B) {
	rows := benchprobe.Table(42, 0)
	for _, suite := range benchprobe.Suites() {
		b.Run(suite, func(b *testing.B) {
			for _, r := range benchprobe.Select(rows, suite) {
				b.Run(r.Name, r.Fn)
			}
		})
	}
}
