package viator

import "testing"

// TestRoutingWorkCounts pins the adaptive router's on-demand work at the
// paper seed: how many per-source trees traffic begins, how many nodes it
// settles and reaches in them, and how many of those trees outgrow
// sparse storage. The counts are deterministic for a fixed (spec, seed).
// Settles shows what destination-bounded builds save: settling every
// tree fully would cost up to LazyBuilds × ships (9.04M on S2 and 2.91M
// on S1). Touched and Promotions show what sparse trees save: an S2 tree
// reaches 133 of 10,000 nodes on average and 6 of 904 grow dense, while
// an S1 tree reaches 469 of 1,000 and 2,725 of 2,910 do.
func TestRoutingWorkCounts(t *testing.T) {
	for _, tc := range []struct {
		sc                              *Scenario
		builds, settles, touched, proms uint64
		heavy                           bool
	}{
		{scenarioS1, 2910, 1144026, 1365795, 2725, false},
		{scenarioS2, 904, 68763, 120352, 6, true},
	} {
		if tc.heavy && testing.Short() {
			continue
		}
		h := StartScenario(tc.sc, 42)
		h.Finish()
		r := h.run.ds[0].n.Router
		if r.LazyBuilds != tc.builds || r.Settles != tc.settles || r.Touched != tc.touched || r.Promotions != tc.proms {
			t.Errorf("%s seed 42: LazyBuilds=%d Settles=%d Touched=%d Promotions=%d, want %d, %d, %d and %d",
				tc.sc.ScenarioID(), r.LazyBuilds, r.Settles, r.Touched, r.Promotions,
				tc.builds, tc.settles, tc.touched, tc.proms)
		}
	}
}
