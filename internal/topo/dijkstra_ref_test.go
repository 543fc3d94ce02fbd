package topo

import (
	"container/heap"
	"math"
	"testing"

	"viator/internal/allocpin"
	"viator/internal/sim"
)

// This file retains the pre-overhaul container/heap Dijkstra verbatim as
// the oracle for the scratch-based kernel: the rewrite must reproduce its
// trees exactly — distances, predecessors and therefore every equal-cost
// tie-break — on arbitrary graphs under arbitrary link churn, because the
// experiment catalog's byte-identical determinism contract rides on those
// tie-breaks.

type refItem struct {
	node NodeID
	dist float64
}

type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refTree is the oracle's shortest-path tree: plain per-node slices.
type refTree struct {
	src   NodeID
	dist  []float64 // +Inf when unreachable
	prev  []NodeID  // -1 at the source / unreachable
	order []NodeID  // reachable nodes in settle order
}

// nextHop walks the predecessor chain back to the source: the first hop
// toward dst, or -1 at the source and at unreachable nodes.
func (r *refTree) nextHop(dst NodeID) NodeID {
	if math.IsInf(r.dist[dst], 1) || dst == r.src {
		return -1
	}
	hop := dst
	for r.prev[hop] != r.src {
		hop = r.prev[hop]
	}
	return hop
}

// referenceDijkstra is the original implementation: boxed heap, lazy
// deletion, relaxation in adjacency order over up links.
func referenceDijkstra(g *Graph, src NodeID) *refTree {
	t := &refTree{src: src, dist: make([]float64, g.N()), prev: make([]NodeID, g.N())}
	for i := range t.dist {
		t.dist[i] = math.Inf(1)
		t.prev[i] = -1
	}
	t.dist[src] = 0
	h := &refHeap{{src, 0}}
	done := make([]bool, g.N())
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		t.order = append(t.order, u)
		for _, li := range g.adj[u] {
			l := g.link[li]
			if !l.Up {
				continue
			}
			if l.Cost < 0 {
				panic("topo: negative link cost")
			}
			nd := t.dist[u] + l.Cost
			if nd < t.dist[l.To] {
				t.dist[l.To] = nd
				t.prev[l.To] = u
				heap.Push(h, refItem{l.To, nd})
			}
		}
	}
	return t
}

// expectEqualSPT requires exact equality — including tie-breaks — between
// a computed tree and the reference: distances, predecessors, and first
// hops against the reference's predecessor chains.
func expectEqualSPT(t *testing.T, got *SPT, ref *refTree) {
	t.Helper()
	for i := range ref.dist {
		v := NodeID(i)
		if d := got.Dist(v); d != ref.dist[i] && !(math.IsInf(d, 1) && math.IsInf(ref.dist[i], 1)) {
			t.Fatalf("dist[%d] = %v, reference %v", i, d, ref.dist[i])
		}
		if p := got.Prev(v); p != ref.prev[i] {
			t.Fatalf("prev[%d] = %d, reference %d", i, p, ref.prev[i])
		}
		if hop, want := got.NextHop(v), ref.nextHop(v); hop != want {
			t.Fatalf("next hop to %d = %d, reference %d", i, hop, want)
		}
	}
}

// churn applies a burst of random link mutations: up/down flips, cost
// changes, and occasionally a brand-new link pair.
func churn(g *Graph, rng *sim.RNG) {
	for k := 0; k < 12; k++ {
		switch rng.Intn(4) {
		case 0:
			li := rng.Intn(g.Links())
			g.SetUp(li, !g.Link(li).Up)
		case 1, 2:
			g.SetCost(rng.Intn(g.Links()), rng.Float64()*3)
		case 3:
			a := NodeID(rng.Intn(g.N()))
			b := NodeID(rng.Intn(g.N()))
			if a != b {
				g.ConnectBoth(a, b, rng.Float64()*2)
			}
		}
	}
}

func TestDijkstraMatchesReferenceUnderChurn(t *testing.T) {
	rng := sim.NewRNG(123)
	for trial := 0; trial < 6; trial++ {
		var g *Graph
		if trial%2 == 0 {
			g = Waxman(40, 0.4, 0.3, rng)
		} else {
			g = RandomGeometric(40, 10, 2.5, rng)
		}
		if g.Links() == 0 {
			g.ConnectBoth(0, 1, 1)
		}
		sc := &SPTScratch{}
		spt := &SPT{}
		for round := 0; round < 5; round++ {
			churn(g, rng)
			for s := 0; s < g.N(); s += 5 {
				expectEqualSPT(t, g.ComputeInto(sc, spt, NodeID(s)), referenceDijkstra(g, NodeID(s)))
				// The one-shot wrapper must agree too.
				expectEqualSPT(t, g.Dijkstra(NodeID(s)), referenceDijkstra(g, NodeID(s)))
			}
		}
	}
}

// TestDijkstraCostsMatchesReference checks the slice-overlay variant: a
// reweighted run over g must equal the reference run over a clone whose
// stored costs were rewritten, with +Inf entries behaving as down links.
func TestDijkstraCostsMatchesReference(t *testing.T) {
	rng := sim.NewRNG(99)
	for trial := 0; trial < 4; trial++ {
		g := Waxman(30, 0.5, 0.3, rng)
		if g.Links() == 0 {
			g.ConnectBoth(0, 1, 1)
		}
		for k := 0; k < 5; k++ {
			g.SetUp(rng.Intn(g.Links()), false)
		}
		costs := make([]float64, g.Links())
		for li := range costs {
			if !g.Link(li).Up {
				costs[li] = math.Inf(1)
				continue
			}
			costs[li] = rng.Float64() * 5
		}
		oracle := g.Clone()
		for li := 0; li < oracle.Links(); li++ {
			if oracle.Link(li).Up {
				oracle.SetCost(li, costs[li])
			}
		}
		for s := 0; s < g.N(); s++ {
			expectEqualSPT(t, g.DijkstraCosts(NodeID(s), costs), referenceDijkstra(oracle, NodeID(s)))
		}
	}
}

// TestCostOverlayMatchesReferenceAndFreezes checks the CSR capture: the
// overlay must equal the reference on an equivalently reweighted clone,
// and — the property the lazy control plane rests on — computing from the
// capture after further live-graph mutations must still reproduce the
// capture-time tree, not the live one.
func TestCostOverlayMatchesReferenceAndFreezes(t *testing.T) {
	rng := sim.NewRNG(7)
	g := Waxman(30, 0.5, 0.3, rng)
	if g.Links() == 0 {
		g.ConnectBoth(0, 1, 1)
	}
	for k := 0; k < 4; k++ {
		g.SetUp(rng.Intn(g.Links()), false)
	}
	reweight := make([]float64, g.Links())
	for li := range reweight {
		reweight[li] = rng.Float64() * 5
	}
	var ov CostOverlay
	g.CaptureInto(&ov, func(li int) float64 { return reweight[li] })
	oracle := g.Clone()
	for li := 0; li < oracle.Links(); li++ {
		oracle.SetCost(li, reweight[li])
	}
	for s := 0; s < g.N(); s++ {
		expectEqualSPT(t, ov.ComputeOverlayInto(nil, NodeID(s)), referenceDijkstra(oracle, NodeID(s)))
	}
	// Mutate the live graph heavily; the capture must not move.
	churn(g, rng)
	for s := 0; s < g.N(); s += 3 {
		expectEqualSPT(t, ov.ComputeOverlayInto(nil, NodeID(s)), referenceDijkstra(oracle, NodeID(s)))
	}
}

// TestResumableOverlayMatchesReferenceStepwise pins the destination-
// bounded run against the oracle one query at a time, on churned Waxman
// graphs with an isolated node and random query sequences that include
// dst == src, the unreachable node and repeated destinations. After every
// SettleTo each settled node must already carry the oracle's Dist, Prev
// and first hop, and every node not settled must report no hop; after
// Complete the whole tree must equal the oracle exactly. One tree is
// reused across sources and rounds, so stale trees — complete ones and
// partial ones with a live frontier — are begun again over their own
// retained heap. Odd trials use 40-node graphs, on which runs begin
// dense; even ones use 320 nodes at the same mean degree, on which runs
// begin sparse and promote a few settles in, so the checks straddle the
// promotion.
func TestResumableOverlayMatchesReferenceStepwise(t *testing.T) {
	rng := sim.NewRNG(2024)
	spt := &SPT{}
	var ov CostOverlay
	var modes stepModes
	for trial := 0; trial < 6; trial++ {
		n := 320 >> (3 * (trial % 2))
		g := Waxman(n, 12/float64(n), 0.3, rng)
		if g.Links() == 0 {
			g.ConnectBoth(0, 1, 1)
		}
		for round := 0; round < 3; round++ {
			churn(g, rng)
			isolated := g.AddNode() // after churn, which may link any node
			oracle := captureTies(g, &ov, rng)
			for s := 0; s < g.N(); s += 7 {
				src := NodeID(s)
				ref := referenceDijkstra(oracle, src)
				if src != isolated && !math.IsInf(ref.dist[isolated], 1) {
					t.Fatal("isolated node is reachable")
				}
				queries := []NodeID{src}
				for k := 0; k < 8; k++ {
					queries = append(queries, NodeID(rng.Intn(g.N())))
				}
				queries = append(queries, queries[len(queries)-1])
				// Every other tree is left partial for the next BeginInto to
				// reuse with a live frontier; the unreachable query, which
				// drains the frontier, goes to the others.
				partial := s%14 == 7
				if !partial {
					queries = append(queries, isolated)
				}
				checkStepwise(t, &ov, spt, ref, queries, !partial, &modes)
			}
		}
	}
	if modes.beganDense == 0 || modes.promotedMidRun == 0 {
		t.Fatalf("regimes not both exercised: %d runs began dense, %d promoted mid-run",
			modes.beganDense, modes.promotedMidRun)
	}
}

// TestSparseTreeMatchesReferenceOnLargeGraphs runs the stepwise check on
// random geometric graphs of 3,000 nodes, querying only destinations
// among the first 30 the source's run settles: those runs touch far
// fewer than n/16 nodes and must stay sparse to the end. Every other
// source then asks for the last node its run settles, which promotes the
// run in the middle, and completes; the next source begins sparse again
// over a tree that already owns dense arrays, so one reused tree crosses
// promotion repeatedly.
func TestSparseTreeMatchesReferenceOnLargeGraphs(t *testing.T) {
	rng := sim.NewRNG(77)
	spt := &SPT{}
	var ov CostOverlay
	var modes stepModes
	for trial := 0; trial < 2; trial++ {
		g := RandomGeometric(3000, 100, 3, rng)
		oracle := captureTies(g, &ov, rng)
		for s := trial; s < g.N(); s += 250 {
			src := NodeID(s)
			ref := referenceDijkstra(oracle, src)
			order := ref.order
			near := order[:min(30, len(order))]
			var queries []NodeID
			for k := 0; k < 6; k++ {
				queries = append(queries, near[rng.Intn(len(near))])
			}
			far := s%500 == trial
			if far {
				queries = append(queries, order[len(order)-1])
			}
			checkStepwise(t, &ov, spt, ref, queries, far, &modes)
			if !far && !spt.Sparse() {
				t.Fatalf("src %d: a run that touched %d of %d nodes promoted", src, spt.Touched(), g.N())
			}
		}
	}
	if modes.endedSparse == 0 || modes.promotedMidRun == 0 {
		t.Fatalf("regimes not both exercised: %d runs ended sparse, %d promoted mid-run",
			modes.endedSparse, modes.promotedMidRun)
	}
}

// stepModes counts the storage regimes checkStepwise ran through: runs
// begun dense, query sequences that ended with the tree still sparse,
// and SettleTo calls that promoted it.
type stepModes struct {
	beganDense, endedSparse, promotedMidRun int
}

// captureTies captures g into ov with every up link repriced at a small
// integer, which forces equal-cost ties, and returns a clone of g holding
// the same prices for the oracle.
func captureTies(g *Graph, ov *CostOverlay, rng *sim.RNG) *Graph {
	reweight := make([]float64, g.Links())
	for li := range reweight {
		reweight[li] = float64(rng.Intn(4))
	}
	g.CaptureInto(ov, func(li int) float64 { return reweight[li] })
	oracle := g.Clone()
	for li := 0; li < oracle.Links(); li++ {
		oracle.SetCost(li, reweight[li])
	}
	return oracle
}

// checkStepwise begins spt at ref's source over ov and settles the
// queries one by one, checking the settled prefix against the oracle
// after each; with complete it then finishes the run and requires the
// whole tree to equal the oracle.
func checkStepwise(t *testing.T, ov *CostOverlay, spt *SPT, ref *refTree, queries []NodeID, complete bool, modes *stepModes) {
	t.Helper()
	src := ref.src
	ov.BeginInto(spt, src)
	if wantSparse := ov.N()/sptSparseFraction >= sptMinSparse; spt.Sparse() != wantSparse {
		t.Fatalf("src %d: BeginInto over %d nodes: sparse=%v, want %v", src, ov.N(), spt.Sparse(), wantSparse)
	}
	if !spt.Sparse() {
		modes.beganDense++
	}
	total := 0
	for _, dst := range queries {
		wasSparse := spt.Sparse()
		total += spt.SettleTo(dst)
		if wasSparse && !spt.Sparse() {
			modes.promotedMidRun++
		}
		if again := spt.SettleTo(dst); again != 0 {
			t.Fatalf("repeated SettleTo(%d) settled %d more nodes", dst, again)
		}
		expectSettledPrefix(t, spt, ref, total)
		if !math.IsInf(ref.dist[dst], 1) && !spt.isSettled(dst) {
			t.Fatalf("src %d: reachable dst %d not settled by SettleTo", src, dst)
		}
	}
	if spt.Sparse() && total > 1 {
		modes.endedSparse++
	}
	if !complete {
		return
	}
	total += spt.Complete()
	expectEqualSPT(t, spt, ref)
	reach := 0
	for _, d := range ref.dist {
		if !math.IsInf(d, 1) {
			reach++
		}
	}
	if total != reach || spt.Touched() != reach || spt.Complete() != 0 {
		t.Fatalf("src %d: settled %d and touched %d nodes in all, %d reachable", src, total, spt.Touched(), reach)
	}
}

// expectSettledPrefix checks a partial tree against the oracle: settled
// nodes match it exactly, the others have no hop yet, the settled count
// equals what the SettleTo calls reported, and Touched counts exactly the
// nodes with a finite distance.
func expectSettledPrefix(t *testing.T, got *SPT, ref *refTree, total int) {
	t.Helper()
	settled, touched := 0, 0
	for i := range ref.dist {
		v := NodeID(i)
		if !math.IsInf(got.Dist(v), 1) {
			touched++
		}
		if !got.isSettled(v) {
			if hop := got.NextHop(v); hop != -1 {
				t.Fatalf("unsettled node %d reports hop %d", v, hop)
			}
			continue
		}
		settled++
		wantHop := ref.nextHop(v)
		if got.Dist(v) != ref.dist[v] || got.Prev(v) != ref.prev[v] || got.NextHop(v) != wantHop {
			t.Fatalf("settled node %d: dist/prev/hop %v/%d/%d, reference %v/%d/%d",
				v, got.Dist(v), got.Prev(v), got.NextHop(v), ref.dist[v], ref.prev[v], wantHop)
		}
	}
	if settled != total {
		t.Fatalf("%d nodes settled, SettleTo reported %d", settled, total)
	}
	if touched != got.Touched() {
		t.Fatalf("%d nodes have a finite distance, Touched reports %d", touched, got.Touched())
	}
}

// TestComputeIntoAllocationFree pins the scratch-kernel contract: once
// the tree and scratch have grown to the graph, repeated single-source
// builds allocate nothing — the property every per-pulse recomputation
// in the routing control plane relies on.
func TestComputeIntoAllocationFree(t *testing.T) {
	g := ConnectedWaxman(64, 0.4, 0.3, sim.NewRNG(5))
	sc, spt := &SPTScratch{}, &SPT{}
	g.ComputeInto(sc, spt, 0)
	var ov CostOverlay
	g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
	allocpin.Zero(t, 50, func() { g.ComputeInto(sc, spt, 3) }, "(*Graph).ComputeInto")
	allocpin.Zero(t, 50, func() { ov.ComputeOverlayInto(spt, 5) }, "(*CostOverlay).ComputeOverlayInto")
	allocpin.Zero(t, 50, func() {
		ov.BeginInto(spt, 7)
		spt.SettleTo(NodeID(g.N() - 1))
	}, "(*CostOverlay).BeginInto", "(*SPT).SettleTo")
	allocpin.Zero(t, 50, func() { g.CaptureInto(&ov, func(li int) float64 { return 1 }) }, "(*Graph).CaptureInto")
}

// TestSparseTreeAllocationFree pins both storage regimes of a reused
// tree on a 60×60 grid (promotion past 225 entries): a run to a
// destination three hops out stays sparse, and a run to the far corner
// crosses promotion again on every repetition, reusing the dense arrays
// its first promotion made. Neither allocates once the tree has grown.
func TestSparseTreeAllocationFree(t *testing.T) {
	g := Grid(60, 60)
	var ov CostOverlay
	g.CaptureInto(&ov, func(li int) float64 { return g.Link(li).Cost })
	spt := &SPT{}
	src, near, far := NodeID(30*60+30), NodeID(31*60+32), NodeID(g.N()-1)
	run := func(dst NodeID) {
		ov.BeginInto(spt, src)
		spt.SettleTo(dst)
	}
	run(far)
	if spt.Sparse() {
		t.Fatal("a run to the far corner stayed sparse")
	}
	run(near)
	if !spt.Sparse() || spt.Touched() > g.N()/sptSparseFraction {
		t.Fatalf("a run three hops out touched %d nodes, sparse=%v", spt.Touched(), spt.Sparse())
	}
	allocpin.Zero(t, 50, func() { run(near) },
		"(*CostOverlay).BeginInto", "(*SPT).SettleTo", "(*SPT).settle", "(*SPT).entries", "(*SPT).find")
	allocpin.Zero(t, 50, func() { run(far) },
		"(*CostOverlay).BeginInto", "(*SPT).SettleTo", "(*SPT).settle", "(*SPT).promote")
	if spt.Sparse() || spt.NextHop(far) == -1 {
		t.Fatal("the far run did not promote or did not settle its destination")
	}
}

// TestNextHopAllocationFree pins the forwarding-path lookup at 0
// allocs/op — it used to reconstruct and reverse the full path per call,
// once per hop per packet.
func TestNextHopAllocationFree(t *testing.T) {
	g := ConnectedWaxman(64, 0.4, 0.3, sim.NewRNG(6))
	spt := g.Dijkstra(0)
	dst := NodeID(g.N() - 1)
	if spt.NextHop(dst) == -1 {
		t.Fatal("expected a route in a connected graph")
	}
	allocpin.Zero(t, 100, func() { spt.NextHop(dst) }, "(*SPT).NextHop")
}

func TestBFSInto(t *testing.T) {
	g := Ring(6)
	var sc BFSScratch
	edges := 0
	if !g.BFSInto(&sc, 0, 3, func(from, to NodeID) { edges++ }) {
		t.Fatal("ring should reach 3")
	}
	if edges == 0 {
		t.Fatal("no edge callbacks")
	}
	// Predecessor chain walks back to the source.
	hops := 0
	for v := NodeID(3); v != 0; v = sc.Prev(v) {
		hops++
		if hops > g.N() {
			t.Fatal("prev chain does not reach source")
		}
	}
	if hops != 3 {
		t.Fatalf("ring 0→3 took %d hops, want 3", hops)
	}
	// Exact flood accounting on a line: 0→1 discovers, 1→0 re-visits,
	// 1→2 discovers the target; the flood stops there.
	line := Line(3)
	edges = 0
	if !line.BFSInto(&sc, 0, 2, func(from, to NodeID) { edges++ }) {
		t.Fatal("line should reach 2")
	}
	if edges != 3 {
		t.Fatalf("line flood sent %d transmissions, want 3", edges)
	}
	// A partitioned target is not found.
	p := New()
	p.AddNodes(2)
	if p.BFSInto(&sc, 0, 1, nil) {
		t.Fatal("found across partition")
	}
	// Flood semantics: the source is never "discovered" as a target.
	if g.BFSInto(&sc, 0, 0, nil) {
		t.Fatal("src==dst should flood and report not found")
	}
}

// TestVersionTracksLinkState pins the widened Version contract the pulse
// gate depends on: adds, up/down flips and cost changes move it; no-op
// writes do not.
func TestVersionTracksLinkState(t *testing.T) {
	g := Line(3)
	v := g.Version()
	g.SetUp(0, true) // already up: no-op
	g.SetCost(0, g.Link(0).Cost)
	if g.Version() != v {
		t.Fatal("no-op writes must not move Version")
	}
	g.SetUp(0, false)
	if g.Version() == v {
		t.Fatal("SetUp change must move Version")
	}
	v = g.Version()
	g.SetCost(1, 42)
	if g.Version() == v {
		t.Fatal("SetCost change must move Version")
	}
	v = g.Version()
	g.Connect(0, 2, 1)
	if g.Version() == v {
		t.Fatal("Connect must move Version")
	}
	v = g.Version()
	g.AddNode()
	if g.Version() == v {
		t.Fatal("AddNode must move Version")
	}
}
