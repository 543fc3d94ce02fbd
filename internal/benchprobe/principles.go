package benchprobe

import (
	"fmt"
	"testing"

	"viator"
	"viator/internal/cluster"
	"viator/internal/feedback"
	"viator/internal/kq"
	"viator/internal/metamorph"
	"viator/internal/ployon"
	"viator/internal/resonance"
	"viator/internal/roles"
	"viator/internal/ship"
	"viator/internal/sim"
	"viator/internal/topo"
)

// --- principle-engine benchmarks (suite "principles") ---
//
// Each engine's scratch-backed steady-state path. The pre-refactor
// comparison bodies are retired; their measured speedups are recorded in
// CHANGES.md. All fleet-based bodies run at the S2 megalopolis fleet
// size (10k ships).

// principlesFleet is the S2 fleet size the catalog's megalopolis
// scenario runs.
const principlesFleet = 10_000

// principlesCommunity builds the S2-sized all-fair community (a stable
// fleet: no exclusions, so every round measures the same population).
func principlesCommunity(seed uint64) *cluster.Community {
	c := cluster.New(cluster.DefaultConfig(), sim.NewRNG(seed))
	for i := 0; i < principlesFleet; i++ {
		s := ship.New(ship.DefaultConfig(ployon.ID(i+1), ployon.Class(i%int(ployon.NumClasses))))
		if err := s.Birth(); err != nil {
			panic(err)
		}
		c.Add(s)
	}
	return c
}

// gossipRound measures the community verification round on the indexed
// fast path: per probe, one RNG draw and one role-kind compare.
// 0 allocs/op steady state.
func gossipRound(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		c := principlesCommunity(seed)
		c.GossipRound()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.GossipRound()
		}
	}
}

// formClustersSteady measures re-clustering an unchanged fleet: the
// fingerprint gate absorbs the pass in one hash over the active view.
// 0 allocs/op.
func formClustersSteady(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		c := principlesCommunity(seed)
		c.FormClusters()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.FormClusters()
		}
	}
}

// formClustersRebuild measures the full greedy congruence pass — the
// work every pre-refactor FormClusters call did regardless of change —
// by touching one ship's shape before each call to defeat the gate.
func formClustersRebuild(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		c := principlesCommunity(seed)
		m, _ := c.Member(1)
		c.FormClusters()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Ship.Shape[0] += 1e-12 // invalidate the fingerprint, not the clustering
			c.FormClusters()
		}
	}
}

// principlesSnapshots precomputes the fact-set stream the observation
// benchmarks fold in: 64 rotating snapshots of 24 facts drawn from a
// 96-fact universe (the pair kernel is 276 pairs per snapshot).
func principlesSnapshots(seed uint64) [][]kq.FactID {
	universe := make([]kq.FactID, 96)
	for i := range universe {
		universe[i] = kq.FactID(fmt.Sprintf("need:fact-%02d", i))
	}
	rng := sim.NewRNG(seed)
	snaps := make([][]kq.FactID, 64)
	for s := range snaps {
		snap := make([]kq.FactID, 24)
		for i := range snap {
			snap[i] = universe[rng.Intn(len(universe))]
		}
		snaps[s] = snap
	}
	return snaps
}

// observeFacts measures the interned co-occurrence fold: per snapshot,
// slice-indexed fact counts and one uint64-keyed map increment per pair.
// 0 allocs/op steady state.
func observeFacts(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := resonance.New(resonance.DefaultConfig())
		snaps := principlesSnapshots(seed)
		for _, s := range snaps {
			e.ObserveFacts(s)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ObserveFacts(snaps[i%len(snaps)])
		}
	}
}

// emergeFrontier measures the steady-state emergence scan: every
// resonant pair already emerged, the frontier holds only the sub-bar
// candidates, and no names are rebuilt.
func emergeFrontier(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := resonance.New(resonance.DefaultConfig())
		snaps := principlesSnapshots(seed)
		for r := 0; r < 10; r++ {
			for _, s := range snaps {
				e.ObserveFacts(s)
			}
		}
		e.Emerge() // drain everything already resonant
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Emerge()
		}
	}
}

// principlesBus builds the publish benchmark bus: 64 keyed subscribers
// per dimension of interest plus a handful of wildcards — the scale of
// an S2 control plane with per-node loops.
func principlesBus(sink *float64) (*feedback.Bus, feedback.Key) {
	b := feedback.NewBus()
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("node-%d", i)
		b.Subscribe(feedback.PerNode, key, func(s feedback.Signal) { *sink += s.Value })
	}
	for i := 0; i < 4; i++ {
		b.Subscribe(feedback.PerNode, "", func(s feedback.Signal) { *sink += s.Value })
	}
	return b, b.Key(feedback.PerNode, "node-7")
}

// feedbackPublishKey measures the pre-resolved routing handle path: one
// route-slice walk per signal. 0 allocs/op.
func feedbackPublishKey(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	bus, k := principlesBus(&sink)
	bus.PublishKey(feedback.PerNode, k, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.PublishKey(feedback.PerNode, k, 1, float64(i))
	}
}

// metamorphPulse measures one quiescent horizontal pulse plus the CSR
// census and entropy reads over the S2 fleet — the per-epoch principle
// overhead when no demand shift warrants movement. 0 allocs/op.
func metamorphPulse(seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		ships := make([]*ship.Ship, principlesFleet)
		for i := range ships {
			ships[i] = ship.New(ship.DefaultConfig(ployon.ID(i+1), ployon.Class(i%int(ployon.NumClasses))))
			if err := ships[i].Birth(); err != nil {
				b.Fatal(err)
			}
		}
		e := metamorph.New(metamorph.DefaultConfig(), ships)
		demand := func(i int, k roles.Kind) float64 { return 0 }
		var o metamorph.Outstanding
		e.OutstandingInto(&o)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.HorizontalPulse(demand)
			e.OutstandingInto(&o)
			e.RoleEntropy()
		}
	}
}

// jetEpidemic measures a boosting jet spreading through a 16-ship grid
// network for 10 sim seconds, one fresh network per op.
func jetEpidemic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := viator.DefaultConfig(16, uint64(i))
		cfg.Graph = topo.Grid(4, 4)
		n := viator.NewNetwork(cfg)
		n.InjectJet(0, roles.Boosting, 3)
		n.Run(10)
	}
}
