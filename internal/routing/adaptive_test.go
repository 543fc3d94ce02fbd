package routing

import (
	"testing"
	"viator/internal/allocpin"

	"viator/internal/sim"
	"viator/internal/topo"
)

// TestTeardownDefaultOverlayGuarded is the regression test for the
// nil-table crash: tearing down the default "" overlay used to succeed,
// after which any NextHop/Path on an unknown overlay indexed a nil
// fallback table and panicked. The default overlay is now permanent.
func TestTeardownDefaultOverlayGuarded(t *testing.T) {
	g := topo.Line(3)
	a := NewAdaptive(g, 2)
	a.SpawnOverlay("qos", 3)
	a.TeardownOverlay(DefaultOverlay) // refused: "" is the universal fallback
	if names := a.Overlays(); len(names) != 2 || names[0] != DefaultOverlay {
		t.Fatalf("overlays after default teardown = %v", names)
	}
	a.TeardownOverlay("qos")
	// Both of these crashed before the guard.
	if hop := a.NextHop("qos", 0, 2); hop != 1 {
		t.Fatalf("fallback NextHop = %d, want 1", hop)
	}
	if p := a.Path("nosuch", 0, 2); len(p) != 3 {
		t.Fatalf("fallback Path = %v", p)
	}
	if hop := a.NextHop(DefaultOverlay, 0, 2); hop != 1 {
		t.Fatalf("default NextHop = %d, want 1", hop)
	}
}

// TestPulseGateSkipsUnchangedInputs pins the incremental-pulse contract:
// a pulse recomputes only when topology version, utilization estimates or
// the congestion weight moved since the last one.
func TestPulseGateSkipsUnchangedInputs(t *testing.T) {
	g := topo.Grid(3, 3)
	a := NewAdaptive(g, 2)
	a.Pulse() // no fingerprint yet: recomputes
	a.Pulse()
	a.Pulse()
	if a.Pulses != 3 || a.Recomputes != 1 || a.SkippedPulses != 2 {
		t.Fatalf("pulses=%d recomputes=%d skipped=%d", a.Pulses, a.Recomputes, a.SkippedPulses)
	}
	check := func(want int, why string) {
		t.Helper()
		a.Pulse()
		if a.Recomputes != want {
			t.Fatalf("%s: recomputes = %d, want %d", why, a.Recomputes, want)
		}
	}
	a.ObserveUtilization(0, 0.5)
	check(2, "fresh utilization")
	check(2, "utilization unchanged since")
	g.SetUp(0, false)
	check(3, "link down bumps version")
	g.SetUp(0, false) // no-op write: no version bump
	check(3, "no-op SetUp")
	g.SetCost(1, 9)
	check(4, "cost change bumps version")
	a.CongestionWeight = 7
	check(5, "congestion weight change")
	// Routing still reflects the current state after all the gating.
	if hop := a.NextHop("", 0, 8); hop == -1 {
		t.Fatal("no route through churned grid")
	}
}

// TestLazyEagerParallelIdentical drives identical mutation/feedback
// scripts through a lazy-only router and eager-Rebuild routers at
// several worker counts, and requires identical routing decisions from
// all of them — the determinism argument for the parallel fan-out and
// for lazy evaluation at once. Every pulse is followed by a few routes
// before Rebuild, so Rebuild meets current-generation trees that are
// only partially settled and must finish them: after the eager script
// the all-pairs sweep finds every table complete and settles nothing.
func TestLazyEagerParallelIdentical(t *testing.T) {
	build := func() (*Adaptive, *topo.Graph) {
		g := topo.ConnectedWaxman(40, 0.4, 0.3, sim.NewRNG(11))
		a := NewAdaptive(g, 3)
		a.SpawnOverlay("qos", 4)
		a.SpawnOverlay("bulk", 0)
		return a, g
	}
	run := func(a *Adaptive, g *topo.Graph, workers int, eager bool) {
		a.Workers = workers
		r := sim.NewRNG(7)
		for round := 0; round < 4; round++ {
			for k := 0; k < 8; k++ {
				a.ObserveUtilization(r.Intn(g.Links()), r.Float64())
			}
			if round == 2 {
				g.SetUp(r.Intn(g.Links()), false)
			}
			a.Pulse()
			// Settle a few trees part of the way: destination-bounded
			// builds leave them current but partial.
			for k := 0; k < 4; k++ {
				a.NextHop("", topo.NodeID(r.Intn(g.N())), topo.NodeID(r.Intn(g.N())))
			}
			if eager {
				if a.Settles >= a.LazyBuilds*uint64(g.N()) {
					t.Fatal("script built no partial tree before Rebuild")
				}
				a.Rebuild()
			}
			// Touch a few sources mid-script so lazy and eager interleave.
			a.NextHop("qos", topo.NodeID(r.Intn(g.N())), topo.NodeID(r.Intn(g.N())))
		}
	}
	ref, refG := build()
	run(ref, refG, 1, false)
	for _, cfg := range []struct {
		workers int
		eager   bool
	}{{1, true}, {4, true}, {8, true}, {3, false}} {
		a, g := build()
		run(a, g, cfg.workers, cfg.eager)
		builds, settles := a.LazyBuilds, a.Settles
		for _, ov := range []string{"", "qos", "bulk"} {
			for src := 0; src < g.N(); src++ {
				for dst := 0; dst < g.N(); dst++ {
					want := ref.NextHop(ov, topo.NodeID(src), topo.NodeID(dst))
					got := a.NextHop(ov, topo.NodeID(src), topo.NodeID(dst))
					if got != want {
						t.Fatalf("workers=%d eager=%v overlay=%q: hop %d→%d = %d, lazy reference %d",
							cfg.workers, cfg.eager, ov, src, dst, got, want)
					}
				}
			}
		}
		if cfg.eager && (a.LazyBuilds != builds || a.Settles != settles) {
			t.Fatalf("workers=%d: all-pairs sweep after Rebuild began %d trees and settled %d nodes, want none",
				cfg.workers, a.LazyBuilds-builds, a.Settles-settles)
		}
	}
}

// TestPulseSeesAddedNodes is the regression test for the gate treating
// Version as a complete topology fingerprint: adding a node must reopen
// the gate, so the next pulse grows the tables and routes toward the new
// node resolve (or return -1) instead of indexing out of range.
func TestPulseSeesAddedNodes(t *testing.T) {
	g := topo.Line(3)
	a := NewAdaptive(g, 2)
	a.Pulse()
	n := g.AddNode()
	g.ConnectBoth(2, n, 1)
	a.Pulse() // must recapture: the node grew the topology
	if hop := a.NextHop("", 0, n); hop != 1 {
		t.Fatalf("hop toward added node = %d, want 1", hop)
	}
	// A node with no links yet is unreachable, not a panic.
	m := g.AddNode()
	a.Pulse()
	if hop := a.NextHop("", 0, m); hop != -1 {
		t.Fatalf("hop toward isolated node = %d, want -1", hop)
	}
	// Routing toward a node added after the last pulse — i.e. before the
	// capture knows it exists — is refused, not a panic, for src and dst
	// alike.
	w := g.AddNode()
	g.ConnectBoth(2, w, 1)
	if hop := a.NextHop("", 0, w); hop != -1 {
		t.Fatalf("pre-pulse hop toward new node = %d, want -1", hop)
	}
	if p := a.Path("", 0, w); p != nil {
		t.Fatalf("pre-pulse path toward new node = %v, want nil", p)
	}
	if hop := a.NextHop("", w, 0); hop != -1 {
		t.Fatalf("pre-pulse hop from new node = %d, want -1", hop)
	}
	a.Pulse()
	if hop := a.NextHop("", 0, w); hop != 1 {
		t.Fatalf("post-pulse hop toward new node = %d, want 1", hop)
	}
}

// TestAdaptiveNextHopAllocationFree pins the forwarding-path lookup —
// once per hop per packet — at 0 allocs/op on warm tables, both complete
// ones and ones begun afresh after an invalidating pulse and settled
// only as far as the destination.
func TestAdaptiveNextHopAllocationFree(t *testing.T) {
	g := topo.ConnectedWaxman(32, 0.4, 0.3, sim.NewRNG(3))
	a := NewAdaptive(g, 2)
	a.SpawnOverlay("qos", 3)
	a.Pulse()
	a.Rebuild()
	dst := topo.NodeID(g.N() - 1)
	allocpin.Zero(t, 200, func() {
		a.NextHop("", 0, dst)
		a.NextHop("qos", 1, dst)
		a.NextHop("nosuch", 2, dst) // fallback path included
	}, "(*Adaptive).NextHop")
	i := 0
	allocpin.Zero(t, 200, func() {
		i++
		a.ObserveUtilization(i%g.Links(), float64(i%5)/8) // reopens the pulse gate
		a.Pulse()
		a.NextHop("qos", topo.NodeID(i%g.N()), dst)
	}, "(*Adaptive).NextHop", "(*Adaptive).spt")
}

// TestLazyBuildsCountSparseTraffic checks that a post-invalidation pulse
// computes only the tables traffic actually touches.
func TestLazyBuildsCountSparseTraffic(t *testing.T) {
	g := topo.Grid(5, 5)
	a := NewAdaptive(g, 2)
	a.ObserveUtilization(0, 0.9)
	a.Pulse()
	before := a.LazyBuilds
	a.NextHop("", 0, 24)
	a.NextHop("", 0, 12) // same source: table reused
	a.NextHop("", 7, 24)
	if built := a.LazyBuilds - before; built != 2 {
		t.Fatalf("lazy builds = %d, want 2 (sources 0 and 7)", built)
	}
}

// TestSettlesBoundedByDestination checks that a lazy table is settled
// only as far as the destinations asked of it: a neighbour costs a few
// settles, the far corner the rest, and asking again costs nothing.
func TestSettlesBoundedByDestination(t *testing.T) {
	g := topo.Grid(5, 5)
	a := NewAdaptive(g, 2)
	a.Pulse()
	settle := func(dst topo.NodeID) uint64 {
		before := a.Settles
		a.NextHop("", 0, dst)
		return a.Settles - before
	}
	if n := settle(1); n == 0 || n > 3 {
		t.Fatalf("route to a neighbour settled %d nodes, want 1..3", n)
	}
	if n := settle(24); a.Settles != 25 {
		t.Fatalf("route to the far corner settled %d more, %d in all; want all 25", n, a.Settles)
	}
	if n := settle(1) + settle(24); n != 0 {
		t.Fatalf("repeated routes settled %d nodes, want 0", n)
	}
}

// TestPathOnPartialTreeIsFull checks that Path on a tree settled only
// toward a nearer destination still returns the whole path, equal to an
// eagerly rebuilt router's, for every destination in turn.
func TestPathOnPartialTreeIsFull(t *testing.T) {
	g := topo.ConnectedWaxman(40, 0.4, 0.3, sim.NewRNG(5))
	lazy, eager := NewAdaptive(g, 2), NewAdaptive(g, 2)
	for _, a := range []*Adaptive{lazy, eager} {
		a.ObserveUtilization(0, 0.7)
		a.Pulse()
	}
	eager.Rebuild()
	const src = 3
	lazy.NextHop("", src, src+1)
	if lazy.Settles >= uint64(g.N()) {
		t.Fatalf("first route settled %d of %d nodes; the tree is not partial", lazy.Settles, g.N())
	}
	for dst := g.N() - 1; dst >= 0; dst-- {
		got, want := lazy.Path("", src, topo.NodeID(dst)), eager.Path("", src, topo.NodeID(dst))
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("path %d→%d = %v, eager %v", src, dst, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("path %d→%d = %v, eager %v", src, dst, got, want)
			}
		}
	}
}
