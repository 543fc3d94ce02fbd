package viator

import (
	"strings"
	"sync/atomic"

	"viator/internal/mobility"
	"viator/internal/netsim"
	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/ship"
	"viator/internal/shuttle"
	"viator/internal/sim"
	"viator/internal/stats"
	"viator/internal/telemetry"
	"viator/internal/topo"
)

// The district executor behind the scenario compiler (scenario.go). A
// spec with shards = D describes D spatial districts, each a full Network
// of ships/D ships in its own arena, radio-isolated from the others and
// connected only by trunks — long-haul links whose propagation delay is
// the conservative executor's lookahead. The model is fixed by the spec:
// D, the per-district fleets, the trunk mesh and the traffic mix never
// depend on how the run is executed. An unsharded spec is the one-district
// case: no trunks, one kernel, and the shard override is ignored.
//
// Execution maps D > 1 districts onto K shard kernels (K divides D;
// default K = D, overridable with SetShardOverride / viatorbench
// -shards), each kernel advancing its districts under the ShardGroup's
// windowed conservative protocol. Every cross-district packet leaves
// through a trunk on the source kernel and arrives as a mailbox event on
// the destination kernel, committed in (time, seq, shard) order — so a
// fixed (spec, seed, K) triple replays byte-identical for any worker
// count. Across different K the model work is the same size and shape
// but not bit-identical: districts sharing a kernel interleave their
// draws from that kernel's RNG, so regrouping them perturbs individual
// random decisions (statistically equivalent trajectories, exact replay
// only at fixed K).
//
// Semantics under sharding: traffic generators, churn and jets operate
// per district on local ships (a fixed onoff/cbr pair must be
// same-district, enforced by spec validation); cross_traffic is the one
// inter-district generator. Checkpoint rows aggregate the districts
// exactly (counter sums, role-count entropy over the summed counts,
// merged latency histograms for the quantile columns), and assertions
// evaluate against the merged scorecards. For one district every merge
// is the identity, so the rows equal the district's own. ScenarioResult.Dump
// is nil when D > 1: per-district telemetry exists for the QoS columns,
// but a single-recorder export is not defined across districts.

// shardOverride is the process-wide execution override for the number of
// shard kernels (the viatorbench -shards flag). 0 means "spec default"
// (one kernel per district). Values that do not divide the district
// count are ignored. Atomic because replicate workers read it
// concurrently; it is an execution knob and never affects output at a
// fixed value.
var shardOverride atomic.Int64

// SetShardOverride sets the global shard-kernel override (0 restores the
// spec default). It applies only to specs that declare shards > 1;
// unsharded specs always run their one district on one kernel.
func SetShardOverride(k int) { shardOverride.Store(int64(k)) }

// ShardOverride returns the current override (0 = spec default).
func ShardOverride() int { return int(shardOverride.Load()) }

// shardKernels resolves how many kernels a run of sc uses: 1 for
// unsharded specs, otherwise a divisor of the district count — the
// override when valid, else one kernel per district.
func (sc *Scenario) shardKernels() int {
	d := sc.Spec.Shards
	if d <= 1 {
		return 1
	}
	k := ShardOverride()
	if k <= 0 || k > d || d%k != 0 {
		return d
	}
	return k
}

// shardCheck is one district's snapshot at a checkpoint, captured on the
// district's own kernel and merged into global rows after the run.
type shardCheck struct {
	alive      int
	links      int
	delivered  uint64
	lost       uint64
	repairs    uint64
	partitions uint64
	roleCounts []int
	qosSent    uint64
	qosDeliv   uint64
	lat        *telemetry.Hist
}

// shardDistrict is one district's compiled machinery.
type shardDistrict struct {
	id  int
	n   *Network
	tel *Telemetry
	// mob/model are set for mobile arenas; pos for static ones.
	mob    *Mobility
	model  *mobility.RandomWaypoint
	pos    []topo.Point
	healer *Healer
	// rng is the district's shared churn+traffic stream.
	rng *sim.RNG
	// trunks[dd] carries packets to district dd (nil for dd == id).
	trunks []*netsim.Trunk
	checks []shardCheck
}

// positions returns the fleet positions the traffic/fault geometry sees.
func (d *shardDistrict) positions() []topo.Point {
	if d.model != nil {
		return d.model.Positions()
	}
	return d.pos
}

// linksUp counts directed up links. Mobile arenas read the refresher's
// count; static ones scan the (small, fixed) link table.
func (d *shardDistrict) linksUp() int {
	if d.mob != nil {
		return d.mob.LinksUp
	}
	up := 0
	for i := 0; i < d.n.G.Links(); i++ {
		if d.n.G.Link(i).Up {
			up++
		}
	}
	return up
}

// repairs reads the healer counter, 0 when healing is disarmed.
func (d *shardDistrict) repairs() uint64 {
	if d.healer != nil {
		return d.healer.Repairs
	}
	return 0
}

// partitions counts refreshes that left the district split (mobile only;
// static arenas have no periodic refresh to probe).
func (d *shardDistrict) partitions() uint64 {
	if d.mob != nil {
		return d.mob.Partitions
	}
	return 0
}

// shardedRun is the whole-run state: the executor, the districts and
// the folded checkpoint rows.
type shardedRun struct {
	sc *Scenario
	// group executes D > 1 districts; nil for one district, which runs on
	// its own kernel.
	group *sim.ShardGroup
	ds    []*shardDistrict
	per   int // ships per district
	dpk   int // districts per kernel
	rows  []ScenarioRow
}

func (r *shardedRun) kernelOf(district int) int { return district / r.dpk }

// district resolves a global ship index.
func (r *shardedRun) district(global int) (d, local int) { return global / r.per, global % r.per }

// sendCross launches a shuttle from district d's local ship src to the
// global ship gdst over the trunk mesh. Mirrors SendShuttle: scored as
// sent on the source district's overlay flow at launch, as delivered on
// the destination district's when the trunk mail lands.
func (r *shardedRun) sendCross(d *shardDistrict, src, gdst int, overlay string) {
	dd, _ := r.district(gdst)
	n := d.n
	sh := shuttle.New(n.allocShuttleID(), shuttle.Data, int32(src), int32(gdst), n.Ships[src].Class)
	sh.DstClass = ployon.Class(gdst % int(ployon.NumClasses))
	sh.Shape = n.Ships[src].Shape
	d.tel.QoS.Sent(d.tel.flowFor(overlay))
	pkt := n.Net.NewPacket(topo.NodeID(src), topo.NodeID(gdst), sh.WireSize(), "xshard:"+overlay, sh)
	if !d.trunks[dd].Send(pkt) {
		n.LostShuttles++
	}
}

// deliverCross lands a trunk packet at its destination district: the
// transport records the end-to-end latency (district clocks share one
// virtual timeline, so created-to-now spans the trunk hop exactly), the
// destination's scorecard scores the overlay flow, and the shuttle docks.
func (r *shardedRun) deliverCross(pkt *netsim.Packet) {
	dd, local := r.district(int(pkt.Dst))
	d := r.ds[dd]
	sh := pkt.Payload.(*shuttle.Shuttle)
	d.n.Net.Deliver(pkt)
	overlay := strings.TrimPrefix(pkt.Class, "xshard:")
	d.tel.QoS.Delivered(d.tel.flowFor(overlay), d.n.K.Now()-pkt.Created)
	d.n.dock(local, sh)
}

// armTrunks builds the trunk mesh: one trunk per ordered district pair,
// owned by the source district's kernel; transmit completion posts the
// packet to the destination kernel's mailbox. One district has none
// (and its spec declares no trunk).
func (r *shardedRun) armTrunks() {
	if len(r.ds) == 1 {
		return
	}
	sp := r.sc.Spec
	trunkProps := netsim.LinkProps{
		Bandwidth: sp.Trunk.Bandwidth,
		Delay:     sp.Trunk.Delay,
		QueueCap:  sp.Trunk.QueueCap,
	}
	for di, d := range r.ds {
		srcK := r.kernelOf(di)
		d.trunks = make([]*netsim.Trunk, len(r.ds))
		for dd := range r.ds {
			if dd == di {
				continue
			}
			dstK := r.kernelOf(dd)
			d.trunks[dd] = netsim.NewTrunk(d.n.K, trunkProps, func(p *netsim.Packet, at sim.Time) {
				r.group.Post(srcK, dstK, at, p)
			})
		}
	}
	for ki := 0; ki < r.group.NumShards(); ki++ {
		r.group.OnMail(ki, func(payload any) {
			r.deliverCross(payload.(*netsim.Packet))
		})
	}
}

// advance drives the run toward sim time t (clamped to the horizon) and
// reports whether it reached the horizon. One district advances with the
// same Kernel.Run the batch path uses, so chained advances are
// definitionally one Run(horizon). A shard group advances whole
// conservative windows, always cut against the final horizon, never
// against t, so the window partition — and with it the cross-shard mail
// commit order — is exactly the batch run's; it stops once the slowest
// district passes t. At the horizon it advances every clock there and
// releases the group's workers, the epilogue ShardGroup.Run performs.
func (r *shardedRun) advance(t float64) bool {
	horizon := r.sc.Spec.Horizon
	t = min(t, horizon)
	if r.group == nil {
		r.ds[0].n.Run(t)
		return t >= horizon
	}
	for {
		if _, more := r.group.StepWindow(horizon); !more {
			for i := 0; i < r.group.NumShards(); i++ {
				r.group.Shard(i).Run(horizon)
			}
			r.group.Close()
			return true
		}
		if t < horizon && r.now() >= t {
			return false
		}
	}
}

// now is the run's sim time: the slowest district's clock (the
// conservative bound on what has definitely happened).
func (r *shardedRun) now() float64 {
	now := r.sc.Spec.Horizon
	for _, d := range r.ds {
		now = min(now, d.n.K.Now())
	}
	return now
}

// qos is the run's scorecard set: the single district's live set, or
// for several districts a fresh merge of theirs (registration order by
// district, then first use).
func (r *shardedRun) qos() *telemetry.ScoreSet {
	if len(r.ds) == 1 {
		return r.ds[0].tel.QoS
	}
	merged := telemetry.NewScoreSet()
	for _, d := range r.ds {
		merged.MergeFrom(d.tel.QoS)
	}
	return merged
}

// fleetTotals sums the districts' fleet counters.
type fleetTotals struct {
	alive, ships             int
	delivered, lost, repairs uint64
}

func (t fleetTotals) aliveFrac() float64 { return float64(t.alive) / float64(t.ships) }

func (r *shardedRun) totals() fleetTotals {
	var t fleetTotals
	for _, d := range r.ds {
		t.delivered += d.n.DeliveredShuttles
		t.lost += d.n.LostShuttles
		t.repairs += d.repairs()
		t.ships += len(d.n.Ships)
		for _, s := range d.n.Ships {
			if s.State() == ship.Alive {
				t.alive++
			}
		}
	}
	return t
}

// checkpoint captures district d at checkpoint row i. A lone district's
// row is final once captured, so it folds at once, reading the live
// latency histogram. With several districts each capture keeps a copy of
// its histogram until finish folds the rows after the run.
func (r *shardedRun) checkpoint(d *shardDistrict, i int) {
	lone := len(r.ds) == 1
	d.capture(i, !lone)
	if lone {
		r.rows = append(r.rows, r.fold(i))
	}
}

// capture snapshots the district at checkpoint row, copying the latency
// histogram when copyLat is set.
func (d *shardDistrict) capture(row int, copyLat bool) {
	c := &d.checks[row]
	c.roleCounts = make([]int, roles.NumKinds)
	for _, s := range d.n.Ships {
		if s.State() != ship.Alive {
			continue
		}
		c.alive++
		c.roleCounts[s.ModalRole()]++
	}
	c.links = d.linksUp()
	c.delivered = d.n.DeliveredShuttles
	c.lost = d.n.LostShuttles
	c.repairs = d.repairs()
	c.partitions = d.partitions()
	f := d.tel.Flow("")
	rep := d.tel.QoS.Report(f)
	c.qosSent, c.qosDeliv = rep.Sent, rep.Delivered
	c.lat = d.tel.QoS.Latency(f)
	if copyLat {
		c.lat = telemetry.NewHist()
		c.lat.Merge(d.tel.QoS.Latency(f))
	}
}

// fold merges checkpoint row i of every district into one row: counts
// sum, entropy is computed over the summed role counts, and the latency
// quantile columns come from the exactly merged histograms (merged into
// district 0's snapshot, which nothing reads afterwards). For one
// district every fold is the identity: its histogram is read as
// captured, and the entropy of its counts is metamorph.RoleEntropy.
func (r *shardedRun) fold(i int) ScenarioRow {
	var alive, links int
	var delivered, lost, repairs, partitions, sent, deliv uint64
	counts := make([]int, roles.NumKinds)
	lat := r.ds[0].checks[i].lat
	for di, d := range r.ds {
		c := &d.checks[i]
		alive += c.alive
		links += c.links
		delivered += c.delivered
		lost += c.lost
		repairs += c.repairs
		partitions += c.partitions
		sent += c.qosSent
		deliv += c.qosDeliv
		for k, n := range c.roleCounts {
			counts[k] += n
		}
		if di > 0 {
			lat.Merge(c.lat)
		}
		c.lat = nil
	}
	slo := 0.0
	if r.sc.slo.Check(sent, deliv, lat) {
		slo = 1
	}
	return ScenarioRow{
		T:          r.sc.rowAt[i],
		AliveFrac:  float64(alive) / float64(r.sc.Spec.Ships),
		LinksUp:    links,
		Delivered:  delivered,
		Lost:       lost,
		Repairs:    repairs,
		Partitions: partitions,
		Entropy:    stats.Entropy(counts),
		P50ms:      lat.Quantile(0.50) * 1e3,
		P95ms:      lat.Quantile(0.95) * 1e3,
		P99ms:      lat.Quantile(0.99) * 1e3,
		SLOOK:      slo,
	}
}
