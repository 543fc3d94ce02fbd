package viator

import "testing"

// TestRoutingWorkCounts pins the adaptive router's on-demand work at the
// paper seed: how many per-source trees traffic begins and how many nodes
// it settles in them. The counts are deterministic for a fixed (spec,
// seed). Settles shows what destination-bounded builds save: settling
// every tree fully would cost up to LazyBuilds × ships (9.04M on S2 and
// 2.91M on S1).
func TestRoutingWorkCounts(t *testing.T) {
	for _, tc := range []struct {
		sc              *Scenario
		builds, settles uint64
		heavy           bool
	}{
		{scenarioS1, 2910, 1144026, false},
		{scenarioS2, 904, 68763, true},
	} {
		if tc.heavy && testing.Short() {
			continue
		}
		h := StartScenario(tc.sc, 42)
		h.Finish()
		r := h.run.ds[0].n.Router
		if r.LazyBuilds != tc.builds || r.Settles != tc.settles {
			t.Errorf("%s seed 42: LazyBuilds=%d Settles=%d, want %d and %d",
				tc.sc.ScenarioID(), r.LazyBuilds, r.Settles, tc.builds, tc.settles)
		}
	}
}
