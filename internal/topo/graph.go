// Package topo provides the network topology substrate: weighted graphs
// with dynamic link state, shortest-path routing, connectivity analysis,
// standard generators (ring, grid, random geometric, Waxman) and DOT/ASCII
// export for the figure-reproduction harness.
package topo

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a node within one Graph.
type NodeID int

// Link is a directed edge with a routing cost. Graphs store both directions
// explicitly so asymmetric links (common in ad-hoc radio) are expressible.
type Link struct {
	From, To NodeID
	Cost     float64
	Up       bool
}

// Graph is a mutable directed graph with stable node identifiers.
// It is not safe for concurrent mutation.
type Graph struct {
	n       int
	adj     [][]int // per-node indexes into links
	link    []Link
	pos     []Point // optional geometry, used by geometric generators
	version uint64  // bumped on every topology change: node/link add, up/down, cost
	// edge[u] maps a target node to the first link u→target in insertion
	// order (up or down), giving LinkBetween its O(1) lookup. Maps are
	// created lazily on a node's first outgoing link.
	edge []map[NodeID]int32
}

// Point is a 2-D coordinate used by geometric topologies and mobility.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node and returns its identifier. Like link changes,
// growing the node set bumps Version — the routing pulse gate relies on
// Version being a complete topology fingerprint.
func (g *Graph) AddNode() NodeID {
	g.adj = append(g.adj, nil)
	g.pos = append(g.pos, Point{})
	g.edge = append(g.edge, nil)
	g.n++
	g.version++
	return NodeID(g.n - 1)
}

// AddNodes appends k nodes and returns the first new identifier.
func (g *Graph) AddNodes(k int) NodeID {
	first := NodeID(g.n)
	for i := 0; i < k; i++ {
		g.AddNode()
	}
	return first
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// SetPos assigns a geometric position to a node.
func (g *Graph) SetPos(id NodeID, p Point) { g.pos[id] = p }

// Pos returns a node's geometric position.
func (g *Graph) Pos(id NodeID) Point { return g.pos[id] }

// Connect adds a directed link and returns its index. Duplicate links are
// allowed and treated as parallel edges.
func (g *Graph) Connect(from, to NodeID, cost float64) int {
	if from == to {
		panic("topo: self-loop")
	}
	g.link = append(g.link, Link{From: from, To: to, Cost: cost, Up: true})
	idx := len(g.link) - 1
	g.adj[from] = append(g.adj[from], idx)
	if g.edge[from] == nil {
		g.edge[from] = make(map[NodeID]int32)
	}
	if _, dup := g.edge[from][to]; !dup {
		// Parallel edges keep the first index, matching the insertion-order
		// scan LinkBetween replaces.
		g.edge[from][to] = int32(idx)
	}
	g.version++
	return idx
}

// Version returns a counter that increases whenever the topology
// changes: a node or link is added, a link is brought up or down, or a
// link's cost moves.
// Per-link caches (netsim's state table) and the routing control plane's
// pulse gate compare it against a remembered value to decide whether to
// resynchronize or recompute, instead of re-scanning on every packet or
// re-running all-pairs Dijkstra on every pulse.
func (g *Graph) Version() uint64 { return g.version }

// ConnectBoth adds links in both directions with equal cost and returns
// the two link indexes.
func (g *Graph) ConnectBoth(a, b NodeID, cost float64) (int, int) {
	return g.Connect(a, b, cost), g.Connect(b, a, cost)
}

// Links returns the number of links (directed).
func (g *Graph) Links() int { return len(g.link) }

// Link returns a copy of link i.
func (g *Graph) Link(i int) Link { return g.link[i] }

// SetUp marks link i up or down. Down links are invisible to routing.
// An actual state change bumps Version.
func (g *Graph) SetUp(i int, up bool) {
	if g.link[i].Up != up {
		g.link[i].Up = up
		g.version++
	}
}

// SetCost updates link i's routing cost. An actual change bumps Version.
func (g *Graph) SetCost(i int, c float64) {
	if g.link[i].Cost != c {
		g.link[i].Cost = c
		g.version++
	}
}

// Neighbors returns the IDs reachable from id over up links, in link
// insertion order (deterministic).
func (g *Graph) Neighbors(id NodeID) []NodeID {
	var out []NodeID
	for _, li := range g.adj[id] {
		if g.link[li].Up {
			out = append(out, g.link[li].To)
		}
	}
	return out
}

// OutLinks returns indexes of up links leaving id.
func (g *Graph) OutLinks(id NodeID) []int {
	var out []int
	for _, li := range g.adj[id] {
		if g.link[li].Up {
			out = append(out, li)
		}
	}
	return out
}

// FindLink returns the index of the first up link from→to, or -1.
func (g *Graph) FindLink(from, to NodeID) int {
	for _, li := range g.adj[from] {
		if g.link[li].Up && g.link[li].To == to {
			return li
		}
	}
	return -1
}

// LinkBetween returns the index of the first link from→to in insertion
// order — up or down — or -1 when the nodes were never connected. It is
// an O(1) map lookup, which is what lets the incremental connectivity
// refresh toggle a specific directed link without scanning the node's
// adjacency (the old reuseDirected path was linear in out-degree).
func (g *Graph) LinkBetween(from, to NodeID) int {
	if li, ok := g.edge[from][to]; ok {
		return int(li)
	}
	return -1
}

// Degree returns the number of up out-links at id.
func (g *Graph) Degree(id NodeID) int {
	d := 0
	for _, li := range g.adj[id] {
		if g.link[li].Up {
			d++
		}
	}
	return d
}

// spItem is a priority-queue element for Dijkstra: a (node, tentative
// distance) pair. The queue uses lazy deletion — a node may be pushed
// several times and every pop after its first (cheapest) one is ignored.
type spItem struct {
	node NodeID
	dist float64
}

// spPush and spPop implement a binary min-heap on a plain slice with
// exactly the sift semantics of container/heap (strict less; the right
// child is preferred only when strictly smaller), so the pop order — and
// with it the tie-break between equal-cost paths — is identical to the
// boxed container/heap implementation this replaced, while pushing a
// value costs zero allocations instead of one interface boxing each.
// Both sift with a hole instead of pairwise swaps: the moving element is
// held in a register and each path position receives its child (push:
// parent) directly. The comparison sequence — and therefore the final
// array — is the same as swap-based sifting, at half the memory writes.
func spPush(h []spItem, it spItem) []spItem {
	h = append(h, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.dist < h[i].dist) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
	return h
}

func spPop(h []spItem) ([]spItem, spItem) {
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h[r].dist < h[l].dist {
			j = r
		}
		if !(h[j].dist < x.dist) {
			break
		}
		h[i] = h[j]
		i = j
	}
	if n > 0 {
		h[i] = x
	}
	return h, top
}

// SPT holds a single-source shortest path tree.
//
// A tree begun from a CostOverlay (BeginInto) may be partial: Dijkstra
// settles nodes in a fixed order, and SettleTo runs that order only as
// far as one destination needs, keeping the frontier on the tree so a
// later SettleTo or Complete resumes exactly where it stopped. Dist, Prev
// and NextHop of every settled node are final and equal to the full
// run's; for nodes not yet settled Dist and Prev are tentative and
// NextHop is -1.
//
// A tree's memory follows the nodes its run touches. A begun tree starts
// sparse: each touched node's state (distance, predecessor, first hop)
// is a 20 B entry appended in touch order and found through an
// open-addressed index of 4 B slots keyed by node and kept at most half
// full: from 28 B per touched node, and nothing for the rest. Before it
// would need entries for more than 1/sptSparseFraction of the nodes, or
// on Complete, the tree promotes itself to dense arrays indexed by node,
// 16 B per node of the graph, reusing the dense arrays of an earlier run
// when it has them. Trees over graphs of fewer than
// sptSparseFraction·sptMinSparse nodes, and live-graph trees (Dijkstra,
// ComputeInto), are dense from the start. Only where the state is stored changes with the mode;
// the settle order and every comparison do not, so neither does the tree.
type SPT struct {
	Source NodeID

	// Per-node state in the current mode, indexed by node when dense and
	// by entry when sparse. dist is +Inf and prev -1 at unreached nodes
	// (prev is -1 at the source too). next is the first hop toward each
	// settled node; -1 at the source and at nodes not (yet) settled, which
	// makes it the settled set too. Nodes and hops are int32: CaptureInto
	// refuses graphs it cannot index.
	dist       []float64
	prev, next []int32
	sparse     bool
	// Sparse index: entry k belongs to node nodes[k] (the touched list).
	// index is an open-addressed table with linear probing whose slots
	// hold entry+1, 0 when empty; its power-of-two length is 32-shift
	// bits wide, and a node's probe starts at its Fibonacci hash.
	nodes []int32
	index []int32
	shift uint8
	ents  []int32 // entries' result buffer
	// The arrays of the mode not in use, kept so switching modes reuses
	// them instead of allocating.
	spareDist            []float64
	sparePrev, spareNext []int32

	// Frontier of a resumable run: the overlay it runs over, the
	// lazy-deletion heap verbatim (its slice layout decides equal-distance
	// pop order, so it is never rebuilt or compacted), the number of nodes
	// settled so far — nonzero exactly when the source is settled — and
	// the number touched (given a finite distance) so far.
	ov      *CostOverlay
	heap    []spItem
	settled int
	touched int
}

// sptSparseFraction sets when a begun tree promotes to dense storage:
// before it would hold entries for more than n/sptSparseFraction of the
// overlay's n nodes, checked as each node's out-links are about to be
// relaxed. A run that reaches that far tends to reach much further,
// where array reads beat hash probes, and the memory sparse storage
// still saves there is small. At an eighth, runs that go on to reach
// much of the graph (S1's reach about half) spend measurably longer in
// the sparse phase's probes.
const sptSparseFraction = 16

// sptMinSparse is the smallest entry limit, n/sptSparseFraction, at
// which a begun tree starts sparse. Below it the run would promote within
// a settle or two, so sparse storage would only add work, and the dense
// arrays it would save are under 4 KB.
const sptMinSparse = 16

// sptMinIndex is the sparse index's length when a tree is first begun.
const sptMinIndex = 16

// restart clears the mode-independent state to a run from src.
func (t *SPT) restart(src NodeID) {
	t.Source = src
	t.touched = 0
	t.ov = nil
	t.heap = t.heap[:0]
	t.settled = 0
}

// swapModes exchanges the state arrays with the spare ones and flips the
// mode.
func (t *SPT) swapModes() {
	t.dist, t.spareDist = t.spareDist, t.dist
	t.prev, t.sparePrev = t.sparePrev, t.prev
	t.next, t.spareNext = t.spareNext, t.next
	t.sparse = !t.sparse
}

// reset clears t to the empty dense tree over n nodes rooted at src,
// reusing every backing array, the heap's included.
//
//viator:noalloc
func (t *SPT) reset(n int, src NodeID) {
	if t.sparse {
		t.swapModes()
	}
	t.restart(src)
	t.clearDense(n)
}

// clearDense sizes the dense arrays for n nodes, all unreached.
//
//viator:noalloc
func (t *SPT) clearDense(n int) {
	t.dist = resize(t.dist, n) //viator:alloc-ok amortized capacity growth: a tree's first dense run, or n grew; later runs reuse the arrays
	t.prev = resize(t.prev, n) //viator:alloc-ok amortized capacity growth, as above
	t.next = resize(t.next, n) //viator:alloc-ok amortized capacity growth, as above
	for i := 0; i < n; i++ {
		t.dist[i] = math.Inf(1)
		t.prev[i] = -1
		t.next[i] = -1
	}
}

// resetSparse clears t to the empty sparse tree rooted at src: no
// entries, an empty index. Every backing array is reused.
//
//viator:noalloc
func (t *SPT) resetSparse(src NodeID) {
	if !t.sparse {
		t.swapModes()
	}
	t.restart(src)
	t.dist, t.prev, t.next, t.nodes = t.dist[:0], t.prev[:0], t.next[:0], t.nodes[:0]
	if t.index == nil {
		t.rehash(sptMinIndex)
	} else {
		clear(t.index)
	}
}

// promote moves a sparse tree's entries into dense arrays indexed by
// node, reusing the spare dense arrays when they are large enough.
//
//viator:noalloc
func (t *SPT) promote() {
	dist, prev, next := t.dist, t.prev, t.next
	t.swapModes()
	t.clearDense(t.ov.n)
	for k, v := range t.nodes {
		t.dist[v], t.prev[v], t.next[v] = dist[k], prev[k], next[k]
	}
}

// sptHash is the Fibonacci hash of v: the top 32-shift bits of v times
// 2^32 divided by the golden ratio.
func sptHash(v int32, shift uint8) uint32 {
	return uint32(v) * 0x9E3779B9 >> (shift & 31)
}

// find returns v's entry in a sparse tree, or -1 when v has none.
//
//viator:noalloc
func (t *SPT) find(v NodeID) int32 {
	mask := uint32(len(t.index) - 1)
	for s := sptHash(int32(v), t.shift); ; s = (s + 1) & mask {
		e := t.index[s]
		if e == 0 || t.nodes[e-1] == int32(v) {
			return e - 1
		}
	}
}

// entries returns the entry of each of vs in a sparse tree, appending an
// unreached one (+Inf, no predecessor, no hop) for each node that has
// none, in a buffer the next call reuses.
//
//viator:noalloc
func (t *SPT) entries(vs []int32) []int32 {
	t.reserve(len(vs))
	if cap(t.ents) < len(vs) {
		t.ents = make([]int32, len(vs)) //viator:alloc-ok grows to the largest out-degree once; a reused tree keeps its capacity
	}
	at := t.ents[:len(vs)]
	// New entries are written in place past the current length, inside
	// the capacity reserve made; the lengths move once, at the end.
	k0 := len(t.nodes)
	k, end := k0, k0+len(vs)
	nodes, dist, prev, next := t.nodes[:end], t.dist[:end], t.prev[:end], t.next[:end]
	index, shift := t.index, t.shift
	mask := uint32(len(index) - 1)
	for j, v := range vs {
		for s := sptHash(v, shift); ; s = (s + 1) & mask {
			e := index[s]
			if e == 0 {
				nodes[k], dist[k], prev[k], next[k] = v, math.Inf(1), -1, -1
				index[s] = int32(k + 1)
				at[j] = int32(k)
				k++
				break
			}
			if nodes[e-1] == v {
				at[j] = e - 1
				break
			}
		}
	}
	if k != k0 {
		t.nodes, t.dist, t.prev, t.next = t.nodes[:k], t.dist[:k], t.prev[:k], t.next[:k]
	}
	return at
}

// reserve makes room for m more sparse entries: capacity in the four
// entry arrays, and an index that stays at most half full with them.
// The arrays grow by doubling but not past the entry limit the tree
// promotes at, which they never need to exceed.
//
//viator:noalloc
func (t *SPT) reserve(m int) {
	k := len(t.nodes) + m
	if k > cap(t.nodes) || k > cap(t.dist) || k > cap(t.prev) || k > cap(t.next) {
		m = max(k, min(2*cap(t.nodes), t.ov.n/sptSparseFraction)) - len(t.nodes)
		t.nodes = slices.Grow(t.nodes, m) //viator:alloc-ok amortized growth of the touched list; a reused tree keeps its capacity
		t.dist = slices.Grow(t.dist, m)   //viator:alloc-ok amortized growth, as above
		t.prev = slices.Grow(t.prev, m)   //viator:alloc-ok amortized growth, as above
		t.next = slices.Grow(t.next, m)   //viator:alloc-ok amortized growth, as above
	}
	size := len(t.index)
	for 2*k > size {
		size *= 2
	}
	if size != len(t.index) {
		t.rehash(size)
	}
}

// rehash rebuilds the sparse index at size slots, a power of two.
//
//viator:noalloc
func (t *SPT) rehash(size int) {
	if cap(t.index) < size {
		t.index = make([]int32, size) //viator:alloc-ok amortized doubling of the index; a reused tree keeps its capacity
	}
	t.index = t.index[:size]
	clear(t.index)
	t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	mask := uint32(size - 1)
	for k, v := range t.nodes {
		s := sptHash(v, t.shift)
		for t.index[s] != 0 {
			s = (s + 1) & mask
		}
		t.index[s] = int32(k + 1)
	}
}

// at returns v's index into the state arrays: v itself when dense, its
// entry when sparse, -1 when a sparse tree has not touched v.
func (t *SPT) at(v NodeID) int32 {
	if t.sparse {
		return t.find(v)
	}
	return int32(v)
}

// Dist returns the path cost from the source to v: final once v is
// settled, tentative before, +Inf while v is unreached.
//
//viator:noalloc
func (t *SPT) Dist(v NodeID) float64 {
	if i := t.at(v); i >= 0 {
		return t.dist[i]
	}
	return math.Inf(1)
}

// Prev returns v's predecessor on its path from the source, or -1 at the
// source and at unreached nodes.
//
//viator:noalloc
func (t *SPT) Prev(v NodeID) NodeID {
	if i := t.at(v); i >= 0 {
		return NodeID(t.prev[i])
	}
	return -1
}

// Touched returns the number of nodes the run has reached so far — those
// with a finite distance, the source included.
func (t *SPT) Touched() int { return t.touched }

// Sparse reports whether the tree still keeps its state sparse.
func (t *SPT) Sparse() bool { return t.sparse }

// SPTScratch is the reusable working memory of a live-graph
// shortest-path computation: its priority queue. One scratch serves any
// number of sequential ComputeInto calls over graphs of any size; it is
// not safe for concurrent use — parallel callers hold one scratch each.
// Runs over a CostOverlay keep their queue on the tree instead.
type SPTScratch struct {
	heap []spItem
}

// resize returns s with length n, reusing its backing array when large
// enough. Contents are unspecified — callers reinitialize.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Dijkstra computes shortest paths from src over up links using Cost as
// the metric. Negative costs panic. It allocates a fresh tree; hot
// callers retain an SPTScratch and an SPT and use ComputeInto instead.
func (g *Graph) Dijkstra(src NodeID) *SPT {
	return g.computeInto(nil, nil, src, nil, false)
}

// DijkstraCosts computes shortest paths from src under a cost overlay:
// link i costs costs[i] regardless of its stored Cost, +Inf marks a link
// unusable, and links with index >= len(costs) (created after the overlay
// was captured) are ignored. Live Up flags are deliberately not consulted
// — the costs slice is the complete link-state snapshot, which lets a
// control plane freeze its routing inputs at one instant and compute
// tables from them later (or on other goroutines) without cloning the
// graph.
func (g *Graph) DijkstraCosts(src NodeID, costs []float64) *SPT {
	return g.computeInto(nil, nil, src, costs, true)
}

// ComputeInto is Dijkstra with caller-owned memory: the tree is built
// into t reusing its slices, and sc's buffers hold the working state.
// Once both have grown to the graph size, repeated computations are
// allocation-free. Either may be nil, in which case it is allocated.
// It returns t for convenience.
//
//viator:noalloc
func (g *Graph) ComputeInto(sc *SPTScratch, t *SPT, src NodeID) *SPT {
	return g.computeInto(sc, t, src, nil, false)
}

// ComputeCostsInto is DijkstraCosts with caller-owned memory, with the
// same reuse contract as ComputeInto.
func (g *Graph) ComputeCostsInto(sc *SPTScratch, t *SPT, src NodeID, costs []float64) *SPT {
	return g.computeInto(sc, t, src, costs, true)
}

// CostOverlay is a frozen, routing-ready view of a graph: the up links
// at one instant, laid out as a compressed adjacency (CSR) with blended
// per-link costs. Capturing one is O(links) and reuses the overlay's
// backing arrays; computing shortest paths from it never touches the
// live graph, so a control plane can capture at pulse time and build
// tables lazily — or on worker goroutines — later, with results
// identical to running Dijkstra at capture time. The flat layout also
// makes the relaxation loop two sequential array reads per edge instead
// of three dependent random loads (adjacency slice → link record → cost
// table), which is where an all-pairs rebuild spends its time.
type CostOverlay struct {
	n     int
	start []int32 // edge range of node u is [start[u], start[u+1])
	to    []int32
	cost  []float64
}

// N returns the node count at capture time.
func (o *CostOverlay) N() int { return o.n }

// CaptureInto (re)builds o from g's current up links, pricing link li at
// costOf(li). Negative costs panic here, at capture time — the same
// pulse-step timing at which the pre-overlay design ran Dijkstra and
// panicked. Down links are excluded entirely. Trees index nodes and hops
// as int32, so a graph beyond that range panics here too.
//
//viator:noalloc
func (g *Graph) CaptureInto(o *CostOverlay, costOf func(li int) float64) {
	n := g.n
	if n > math.MaxInt32 {
		panic("topo: graph too large for an int32 hop table") //viator:alloc-ok panic path: no simulated network approaches 2^31 nodes
	}
	o.n = n
	o.start = resize(o.start, n+1) //viator:alloc-ok amortized capacity growth; steady-state capture reuses the overlay and allocates nothing
	o.to = o.to[:0]
	o.cost = o.cost[:0]
	for u := 0; u < n; u++ {
		o.start[u] = int32(len(o.to))
		for _, li := range g.adj[u] {
			l := &g.link[li]
			if !l.Up {
				continue
			}
			c := costOf(li)
			if c < 0 {
				panic("topo: negative link cost") //viator:alloc-ok panic path: negative cost is a model bug, never taken in a valid run
			}
			o.to = append(o.to, int32(l.To))
			o.cost = append(o.cost, c)
		}
	}
	o.start[n] = int32(len(o.to))
}

// ComputeOverlayInto computes the full shortest-path tree from src over
// a captured CostOverlay: BeginInto followed by Complete. The live graph
// is not consulted: topology and costs are exactly as captured.
// Relaxation order equals capture-time adjacency order, so the tree —
// including every equal-cost tie-break — is identical to Dijkstra run at
// capture time. A nil t is allocated; a reused t allocates nothing once
// its slices have grown to the overlay.
//
//viator:noalloc
func (o *CostOverlay) ComputeOverlayInto(t *SPT, src NodeID) *SPT {
	t = o.BeginInto(t, src)
	t.Complete()
	return t
}

// BeginInto starts a resumable shortest-path run from src over o in t:
// it clears the tree to hold only src, reusing its slices and its own
// heap, and pushes src. The tree starts sparse unless o is too small for
// that to pay (see sptMinSparse). Nothing is settled until SettleTo or
// Complete runs. The tree keeps a reference to o, which must not be
// recaptured while the tree is still being settled.
//
//viator:noalloc
func (o *CostOverlay) BeginInto(t *SPT, src NodeID) *SPT {
	if t == nil {
		t = &SPT{} //viator:alloc-ok nil-target convenience path; hot callers pass a reusable *SPT
	}
	if o.n/sptSparseFraction < sptMinSparse {
		t.reset(o.n, src)
	} else {
		t.resetSparse(src)
	}
	t.ov = o
	i := int32(src)
	if t.sparse {
		i = t.entries([]int32{i})[0]
	}
	t.dist[i] = 0
	t.touched = 1
	t.heap = spPush(t.heap, spItem{src, 0})
	return t
}

// SettleTo resumes the run until dst is settled or the frontier is empty
// (dst unreachable), and returns the number of nodes it settled — zero
// when dst was already settled. Because the frontier is kept verbatim,
// the settle order is the full run's, so dst's Dist, Prev and NextHop
// (and those of every node settled before it, its whole path included)
// equal the full tree's. Trees not begun by BeginInto are complete and
// settle nothing.
//
//viator:noalloc
func (t *SPT) SettleTo(dst NodeID) int {
	if t.isSettled(dst) {
		return 0
	}
	return t.settle(dst)
}

// isSettled reports whether the run has settled v: a hop is recorded at
// settle time for every node but the source, which is settled first.
func (t *SPT) isSettled(v NodeID) bool {
	i := t.at(v)
	return (i >= 0 && t.next[i] != -1) || (v == t.Source && t.settled > 0)
}

// Complete runs the tree to exhaustion and returns the number of nodes
// it settled; on a complete tree it is a no-op. A full run reaches every
// reachable node, so a sparse tree with a frontier left promotes to
// dense storage first.
//
//viator:noalloc
func (t *SPT) Complete() int {
	if t.sparse && len(t.heap) > 0 {
		t.promote()
	}
	return t.settle(-1)
}

// settle is the overlay relaxation loop, in either storage mode: it pops
// the frontier, settling each node at its first (cheapest) pop and
// skipping the stale entries lazy deletion leaves behind, until it has
// settled stop (never, for -1) or the frontier is empty. A sparse tree
// promotes itself before it outgrows its entry limit and carries on
// dense.
//
//viator:noalloc
func (t *SPT) settle(stop NodeID) int {
	h := t.heap
	if len(h) == 0 {
		return 0
	}
	// Hoist every slice the loop touches into locals so the compiler keeps
	// them in registers across iterations. In sparse mode a node's state
	// sits at its entry (find, entries) instead of at its ID; entries may
	// grow the state arrays, and promotion replaces them.
	src, dist, prev, next := t.Source, t.dist, t.prev, t.next
	start, tos, costs := t.ov.start, t.ov.to, t.ov.cost
	settled, touched, sparse := t.settled, t.touched, t.sparse
	limit := t.ov.n / sptSparseFraction
	for len(h) > 0 {
		var it spItem
		h, it = spPop(h)
		u := it.node
		iu := int32(u)
		if sparse {
			iu = t.find(u) // present: u was pushed
		}
		if next[iu] != -1 || (u == src && settled > 0) {
			continue // stale entry: u is settled (see isSettled)
		}
		// Settle-time next-hop fill: u's predecessor settled before u did
		// and its prev is final here, so the first hop toward u is an O(1)
		// read off the predecessor's entry.
		if u != src {
			if p := prev[iu]; p == int32(src) {
				next[iu] = int32(u)
			} else if sparse {
				next[iu] = next[t.find(NodeID(p))]
			} else {
				next[iu] = next[p]
			}
		}
		settled++
		du := dist[iu]
		lo, hi := start[u], start[u+1]
		tv, cv := tos[lo:hi], costs[lo:hi]
		// A sparse tree that would pass its entry limit if all of u's
		// targets were new promotes first, so it never holds more.
		if sparse && len(t.nodes)+len(tv) > limit {
			t.promote()
			dist, prev, next, sparse = t.dist, t.prev, t.next, false
		}
		// Relax u's out-links. at[k] is the index of the k-th target's
		// state: the target itself when dense; when sparse, its entry,
		// added first if missing (which may move the state arrays).
		at := tv
		if sparse {
			at = t.entries(tv)
			dist, prev, next = t.dist, t.prev, t.next
		}
		at, cv = at[:len(tv)], cv[:len(tv)]
		for k, to := range tv {
			i, nd := at[k], du+cv[k]
			if nd < dist[i] {
				if math.IsInf(dist[i], 1) {
					touched++
				}
				dist[i] = nd
				prev[i] = int32(u)
				h = spPush(h, spItem{NodeID(to), nd})
			}
		}
		if u == stop {
			break
		}
	}
	n := settled - t.settled
	t.heap, t.settled, t.touched = h, settled, touched
	return n
}

func (g *Graph) computeInto(sc *SPTScratch, t *SPT, src NodeID, costs []float64, useCosts bool) *SPT {
	if sc == nil {
		sc = &SPTScratch{}
	}
	if t == nil {
		t = &SPT{}
	}
	t.reset(g.n, src)
	// Hoist every slice the relaxation loop touches into locals so the
	// compiler keeps them in registers across iterations.
	dist, prev, next, links := t.dist, t.prev, t.next, g.link
	inf := math.Inf(1)
	h := sc.heap[:0]
	dist[src] = 0
	h = spPush(h, spItem{src, 0})
	settled, touched := 0, 1
	for len(h) > 0 {
		var it spItem
		h, it = spPop(h)
		u := it.node
		if next[u] != -1 || (u == src && settled > 0) {
			continue // stale entry: u is settled (see isSettled)
		}
		// Settle-time next-hop fill: u's predecessor settled before u did
		// and Prev[u] is final here, so the first hop toward u is an O(1)
		// read off the predecessor's entry. This is what makes SPT.NextHop
		// an array lookup instead of a path reconstruction.
		if u != src {
			if p := prev[u]; p == int32(src) {
				next[u] = int32(u)
			} else {
				next[u] = next[p]
			}
		}
		settled++
		du := dist[u]
		for _, li := range g.adj[u] {
			var c float64
			if useCosts {
				if li >= len(costs) {
					continue // link added after the overlay was captured
				}
				c = costs[li]
				if c == inf {
					continue // down at capture time
				}
			} else {
				if !links[li].Up {
					continue
				}
				c = links[li].Cost
			}
			if c < 0 {
				panic("topo: negative link cost")
			}
			to := links[li].To
			nd := du + c
			if nd < dist[to] {
				if math.IsInf(dist[to], 1) {
					touched++
				}
				dist[to] = nd
				prev[to] = int32(u)
				h = spPush(h, spItem{to, nd})
			}
		}
	}
	sc.heap, t.settled, t.touched = h, settled, touched
	return t
}

// PathTo reconstructs the node sequence src..dst, or nil when unreachable.
func (t *SPT) PathTo(dst NodeID) []NodeID {
	if math.IsInf(t.Dist(dst), 1) {
		return nil
	}
	var rev []NodeID
	for v := dst; v != -1; v = t.Prev(v) {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// NextHop returns the first hop on the path source→dst, or -1 when dst
// is the source, unreachable or not yet settled. The hop table is filled
// at settle time during the Dijkstra run, so this is an O(1) read on the
// forwarding hot path: an array read when dense, one index probe when
// sparse.
//
//viator:noalloc
func (t *SPT) NextHop(dst NodeID) NodeID {
	if i := t.at(dst); i >= 0 {
		return NodeID(t.next[i])
	}
	return -1
}

// Reachable returns the set of nodes reachable from src over up links
// (including src), via BFS.
func (g *Graph) Reachable(src NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{src: true}
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, li := range g.adj[u] {
			l := g.link[li]
			if l.Up && !seen[l.To] {
				seen[l.To] = true
				queue = append(queue, l.To)
			}
		}
	}
	return seen
}

// Connected reports whether every node can reach every other node over
// up links. It allocates its working memory; ConnectedInto reuses it.
func (g *Graph) Connected() bool { return g.ConnectedInto(&ReachScratch{}) }

// ReachScratch is the reusable working memory of ConnectedInto: the
// in-link index (up links grouped by target, as CSR), the visited set and
// the BFS queue. It is not safe for concurrent use.
type ReachScratch struct {
	inStart []int32 // in-links of node v come from inFrom[inStart[v]:inStart[v+1]]
	inFrom  []int32
	seen    []bool
	queue   []NodeID
}

// ConnectedInto is Connected over caller-owned memory: a forward BFS
// from node 0 over the adjacency, then, only if it reaches every node, a
// reverse one over an in-link index built in the scratch. Once the
// scratch has grown to the graph it allocates nothing.
//
//viator:noalloc
func (g *Graph) ConnectedInto(sc *ReachScratch) bool {
	n := g.n
	if n == 0 {
		return true
	}
	sc.seen = resize(sc.seen, n) //viator:alloc-ok amortized capacity growth; a reused scratch allocates nothing
	if g.reach(sc, nil, nil) != n {
		return false
	}
	// Count up links per target, turn the counts into start offsets,
	// then place each source at its target's next free position.
	start := resize(sc.inStart, n+1) //viator:alloc-ok amortized capacity growth; a reused scratch allocates nothing
	clear(start)
	up := 0
	for i := range g.link {
		if l := &g.link[i]; l.Up {
			start[l.To+1]++
			up++
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	from := resize(sc.inFrom, up) //viator:alloc-ok amortized capacity growth; a reused scratch allocates nothing
	for i := range g.link {
		if l := &g.link[i]; l.Up {
			from[start[l.To]] = int32(l.From)
			start[l.To]++
		}
	}
	// The placement advanced each start to the next node's; shift back.
	copy(start[1:], start[:n])
	start[0] = 0
	sc.inStart, sc.inFrom = start, from
	return g.reach(sc, start, from) == n
}

// reach counts the nodes a BFS from node 0 visits: over up out-links
// when start is nil, over the in-link index (start, from) otherwise.
//
//viator:noalloc
func (g *Graph) reach(sc *ReachScratch, start, from []int32) int {
	seen := sc.seen
	clear(seen)
	q := append(sc.queue[:0], 0) //viator:alloc-ok amortized queue growth; a reused scratch allocates nothing
	seen[0] = true
	for head := 0; head < len(q); head++ {
		u := q[head]
		if start != nil {
			for _, v := range from[start[u]:start[u+1]] {
				if !seen[v] {
					seen[v] = true
					q = append(q, NodeID(v)) //viator:alloc-ok amortized queue growth, as above
				}
			}
			continue
		}
		for _, li := range g.adj[u] {
			if l := &g.link[li]; l.Up && !seen[l.To] {
				seen[l.To] = true
				q = append(q, l.To) //viator:alloc-ok amortized queue growth, as above
			}
		}
	}
	sc.queue = q
	return len(q)
}

// Components returns the weakly connected components as sorted ID slices.
func (g *Graph) Components() [][]NodeID {
	und := New()
	und.AddNodes(g.n)
	for _, l := range g.link {
		if l.Up {
			und.Connect(l.From, l.To, 1)
			und.Connect(l.To, l.From, 1)
		}
	}
	seen := make([]bool, g.n)
	var comps [][]NodeID
	for i := 0; i < g.n; i++ {
		if seen[i] {
			continue
		}
		var comp []NodeID
		for id := range und.Reachable(NodeID(i)) {
			if !seen[id] {
				seen[id] = true
				comp = append(comp, id)
			}
		}
		sort.Slice(comp, func(a, b int) bool { return comp[a] < comp[b] })
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(a, b int) bool { return comps[a][0] < comps[b][0] })
	return comps
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, version: g.version}
	c.adj = make([][]int, len(g.adj))
	for i, a := range g.adj {
		c.adj[i] = append([]int(nil), a...)
	}
	c.link = append([]Link(nil), g.link...)
	c.pos = append([]Point(nil), g.pos...)
	c.edge = make([]map[NodeID]int32, len(g.edge))
	for i, m := range g.edge {
		if m == nil {
			continue
		}
		cm := make(map[NodeID]int32, len(m))
		for to, li := range m {
			cm[to] = li
		}
		c.edge[i] = cm
	}
	return c
}

// DOT renders the graph in Graphviz format with optional node labels.
func (g *Graph) DOT(name string, label func(NodeID) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n", name)
	for i := 0; i < g.n; i++ {
		l := fmt.Sprintf("n%d", i)
		if label != nil {
			l = label(NodeID(i))
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", i, l)
	}
	for _, l := range g.link {
		if !l.Up {
			continue
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%.3g\"];\n", l.From, l.To, l.Cost)
	}
	b.WriteString("}\n")
	return b.String()
}

// AllLinks returns indexes of all links leaving id, up or down, in
// insertion order. Mobility models use it to recycle torn-down links.
func (g *Graph) AllLinks(id NodeID) []int {
	out := make([]int, len(g.adj[id]))
	copy(out, g.adj[id])
	return out
}

// AdjLinks returns the indexes of every link leaving id — up or down, in
// insertion order — as a direct view of the graph's adjacency storage.
// The caller must not modify or retain it across mutations. Unlike
// OutLinks and Neighbors it allocates nothing, which makes it the
// iteration primitive for routing kernels.
func (g *Graph) AdjLinks(id NodeID) []int { return g.adj[id] }

// BFSScratch is the reusable working memory of a breadth-first search:
// the predecessor table, the visited set and the queue. Like SPTScratch
// it is not safe for concurrent use.
type BFSScratch struct {
	prev  []NodeID
	seen  []bool
	queue []NodeID
}

// Prev returns v's predecessor from the latest BFSInto run on this
// scratch (-1 at the source and for undiscovered nodes).
func (sc *BFSScratch) Prev(v NodeID) NodeID { return sc.prev[v] }

// BFSInto runs a breadth-first flood from src over up links into the
// scratch's predecessor table, stopping at the step that discovers dst,
// and reports whether dst was discovered. onEdge, when non-nil, is called
// once per link traversal attempt in deterministic link-insertion order —
// including arrivals at already-visited nodes — mirroring one radio
// transmission per flood edge (AODV's control-message accounting).
// Note that src itself is never "discovered": a search for src==dst
// floods the whole component and reports false, exactly like a route
// request whose target is the requester.
func (g *Graph) BFSInto(sc *BFSScratch, src, dst NodeID, onEdge func(from, to NodeID)) bool {
	n := g.n
	sc.prev = resize(sc.prev, n)
	sc.seen = resize(sc.seen, n)
	for i := 0; i < n; i++ {
		sc.prev[i] = -1
		sc.seen[i] = false
	}
	q := sc.queue[:0]
	sc.seen[src] = true
	q = append(q, src)
	found := false
	for head := 0; head < len(q) && !found; head++ {
		u := q[head]
		for _, li := range g.adj[u] {
			if !g.link[li].Up {
				continue
			}
			v := g.link[li].To
			if onEdge != nil {
				onEdge(u, v)
			}
			if sc.seen[v] {
				continue
			}
			sc.seen[v] = true
			sc.prev[v] = u
			if v == dst {
				found = true
				break
			}
			q = append(q, v)
		}
	}
	sc.queue = q[:0]
	return found
}
