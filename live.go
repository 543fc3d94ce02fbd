package viator

import (
	"strings"

	"viator/internal/telemetry"
	"viator/internal/trace"
)

// Pauseable scenario execution for the live server (internal/serve).
//
// A RunHandle is a scenario run held open between steps: StartScenario
// performs exactly the arming Run performs, StepTo advances the run the
// same way Run's single advance-to-horizon call does, and Finish runs
// the identical epilogue. Because the batch Run is itself implemented as
// arm → advance → finish, an observed stepped run and an unobserved
// batch run share every line of simulation code — the
// determinism-under-observation contract is structural, not a property
// tests merely hope for (though they pin it anyway; see
// TestLiveRunMatchesBatch and the serve race test).
//
// Concurrency: a RunHandle is single-goroutine. The owning driver calls
// StepTo/Finish and, while the handle is quiescent between those calls,
// may read Status/Telemetry/Trace — all read-only over simulation state.
// Nothing here is safe to touch concurrently with a running step; the
// live server enforces that by doing all of it on one goroutine and
// publishing immutable snapshots to its HTTP handlers.

// RunHandle is one scenario run in progress.
type RunHandle struct {
	sc   *Scenario
	seed uint64
	run  *shardedRun
	res  *ScenarioResult
	done bool
}

// StartScenario arms sc for one seed and returns the paused run at sim
// time zero, armed exactly as Run arms it for the same spec and shard
// override.
func StartScenario(sc *Scenario, seed uint64) *RunHandle {
	return &RunHandle{sc: sc, seed: seed, run: sc.arm(seed)}
}

// Scenario returns the compiled scenario the handle runs.
func (h *RunHandle) Scenario() *Scenario { return h.sc }

// Seed returns the run's seed.
func (h *RunHandle) Seed() uint64 { return h.seed }

// Horizon returns the spec's end-of-run sim time.
func (h *RunHandle) Horizon() float64 { return h.sc.Spec.Horizon }

// Done reports whether the run has reached the horizon.
func (h *RunHandle) Done() bool { return h.done }

// Now returns the run's current sim time: the slowest district's clock
// (the conservative bound on what has definitely happened).
func (h *RunHandle) Now() float64 { return h.run.now() }

// StepTo advances the run to sim time t (clamped to the horizon) and
// pauses. A time the run has already reached is a no-op, so a driver
// whose next stop lands inside the last conservative window does not
// step an extra window. The result is the batch run's either way: how
// far each step goes never changes the window partition.
func (h *RunHandle) StepTo(t float64) {
	if h.done || (t < h.Horizon() && t <= h.Now()) {
		return
	}
	h.done = h.run.advance(t)
}

// Finish drives the run to the horizon if needed and seals the result —
// the same epilogue (ticker stops, dump packaging, assertion
// evaluation) the batch Run performs. Idempotent.
func (h *RunHandle) Finish() *ScenarioResult {
	if h.res != nil {
		return h.res
	}
	h.StepTo(h.Horizon())
	h.res = h.run.finish()
	return h.res
}

// Result returns the sealed result, nil before Finish.
func (h *RunHandle) Result() *ScenarioResult { return h.res }

// Telemetry exposes the run's live sinks for read-only rendering while
// the handle is paused. Nil for sharded runs (no single recorder exists;
// Status still reports their merged scorecards).
func (h *RunHandle) Telemetry() *Telemetry {
	if len(h.run.ds) == 1 {
		return h.run.ds[0].tel
	}
	return nil
}

// Trace exposes the run's structured trace ring, nil for sharded runs.
func (h *RunHandle) Trace() *trace.Log {
	if len(h.run.ds) == 1 {
		return h.run.ds[0].n.Trace
	}
	return nil
}

// LiveStatus is a read-only mid-run summary of a paused handle.
type LiveStatus struct {
	Now       float64
	Horizon   float64
	Done      bool
	AliveFrac float64
	Delivered uint64
	Lost      uint64
	// Flows are the per-flow scorecards registered so far (registration
	// happens when traffic first touches a flow; observing never adds
	// one), with current SLO verdicts.
	Flows []telemetry.FlowReport
}

// Status summarizes the paused run. Every read is observational: no
// flow registration, no RNG draws, no kernel events — the status of an
// observed run leaves its future bytes untouched.
func (h *RunHandle) Status() LiveStatus {
	t := h.run.totals()
	st := LiveStatus{
		Now: h.Now(), Horizon: h.Horizon(), Done: h.done,
		AliveFrac: t.aliveFrac(), Delivered: t.delivered, Lost: t.lost,
	}
	if qos := h.run.qos(); qos.NumFlows() > 0 {
		st.Flows = qos.Reports()
	}
	return st
}

// BuiltinScenario resolves a builtin scenario by name (case-insensitive:
// s1, s2, s3, s3s) — the specs the live server can start without being
// handed a spec body.
func BuiltinScenario(name string) (*Scenario, bool) {
	switch strings.ToUpper(name) {
	case "S1":
		return scenarioS1, true
	case "S2":
		return scenarioS2, true
	case "S3":
		return scenarioS3, true
	case "S3S":
		return scenarioS3S, true
	}
	return nil, false
}
