package serve

import (
	"fmt"

	"viator"
)

// benchSpec is the scenario behind SnapshotBench: the same feature-dense
// smoke shape the package tests use (churn, healing, two overlays,
// telemetry tick), scaled up enough that a snapshot carries realistic
// flow and series counts.
const benchSpec = `{
  "name": "bench",
  "title": "bench: snapshot publication probe",
  "ships": 64,
  "horizon": 8.0,
  "row_every": 1.0,
  "arena": {"kind": "static", "side": 300.0, "radius": 95.0},
  "pulse_period": 1.0,
  "heal_period": 1.0,
  "telemetry_tick": 0.5,
  "slo": {"quantile": 0.95, "max_latency": 0.100, "min_delivery_ratio": 0.30},
  "churn": {"period": 0.5},
  "traffic": [
    {"kind": "uniform", "period": 0.05},
    {"kind": "cbr", "rate": 8, "src": 3, "dst": 17, "overlay": "stream"}
  ]
}
`

// SnapshotBench prepares a resident run advanced to mid-horizon and
// returns the closure a driver executes at every barrier: build the
// immutable snapshot, store it, render and broadcast the stream batch.
// It backs the serve.snapshot_publish row of internal/benchprobe's
// benchmark table and lives here because it needs the driver's
// unexported state.
func SnapshotBench() (func(), error) {
	sc, err := viator.ParseScenario([]byte(benchSpec))
	if err != nil {
		return nil, fmt.Errorf("benchSpec: %w", err)
	}
	h := viator.StartScenario(sc, 42)
	h.StepTo(sc.Spec.Horizon / 2)
	s := New(Config{})
	r := &Run{id: "r1", name: "bench", title: sc.Spec.Title, seed: 42,
		ctrl: make(chan ctrlOp, 8), done: make(chan struct{})}
	em := &emitter{tags: `"run":"r1"`}
	return func() { s.publish(r, h, StateRunning, em) }, nil
}
