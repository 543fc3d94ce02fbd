package benchprobe

import (
	"testing"

	"viator"
	"viator/internal/sim"
)

// --- sharded-kernel benchmarks (suite "shard") ---
//
// Two layers: shardGroupWindowed measures the executor substrate on a
// synthetic event workload at several kernel counts, and s3Smoke runs
// the S3 smoke continent end to end at the same kernel counts.

// shardBenchHorizon is the virtual time one shardGroupWindowed op
// advances the group by. With lookahead 0.01 that is ~100 windows/op.
const shardBenchHorizon = 1.0

// shardGroupWindowed measures the conservative windowed executor: k
// kernels, nPer self-rescheduling entities per kernel, every fourth
// firing posting minimum-latency mail to the next kernel. One op runs
// the group one horizon forward — window scan, barrier, mailbox
// exchange, heap commit included. Steady state is 0 allocs/op: entities
// and mail payloads are preallocated, and the group's outboxes, inbox
// heaps and worker pool all reuse their arenas.
func shardGroupWindowed(k, nPer int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		const la = 0.01
		g := sim.NewShardGroup(k, 1, la)
		defer g.Close()
		type ent struct {
			shard int
			fired int
			msg   int // preallocated mail payload
			step  func()
		}
		ents := make([]*ent, 0, k*nPer)
		for s := 0; s < k; s++ {
			s := s
			kn := g.Shard(s)
			g.OnMail(s, func(payload any) { _ = payload.(*int) })
			for i := 0; i < nPer; i++ {
				e := &ent{shard: s}
				rng := sim.NewRNG(uint64(s*nPer+i+1) * 0x9e3779b97f4a7c15)
				e.step = func() {
					e.fired++
					if e.fired%4 == 0 {
						g.Post(e.shard, (e.shard+1)%k, kn.Now()+la, &e.msg)
					}
					kn.After(la+0.001+rng.Float64()*0.01, e.step)
				}
				kn.After(rng.Float64()*la, e.step)
				ents = append(ents, e)
			}
		}
		until := sim.Time(0)
		// One warm horizon grows every arena to steady state.
		until += shardBenchHorizon
		g.Run(until)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			until += shardBenchHorizon
			g.Run(until)
		}
		b.StopTimer()
		fired := 0
		for _, e := range ents {
			fired += e.fired
		}
		if fired == 0 || g.Windows == 0 {
			b.Fatalf("workload idle: fired=%d windows=%d", fired, g.Windows)
		}
	}
}

// shardMailbox measures the raw cross-kernel mail cycle: one Post, one
// exchange (outbox drain + inbox heap push + commit scheduling), one
// StepNext that pops and delivers the entry. 0 allocs/op.
func shardMailbox(b *testing.B) {
	b.ReportAllocs()
	g := sim.NewShardGroup(2, 1, 0)
	g.SetWorkers(1)
	delivered := 0
	g.OnMail(1, func(payload any) { delivered++ })
	dst := g.Shard(1)
	payload := new(int)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Post(0, 1, dst.Now()+0.001, payload)
		g.Exchange()
		dst.StepNext(dst.Now() + 1)
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// s3Smoke measures one full run of the S3 smoke continent (10,000 ships
// in 8 districts) on k shard kernels per op. The model workload is the
// same at every k, so the k=1 → k=8 ns/op ratio is a parallel-speedup
// measurement bounded by the core count. The previous shard override is
// restored afterwards.
func s3Smoke(k int, seed uint64) func(b *testing.B) {
	return func(b *testing.B) {
		prev := viator.ShardOverride()
		viator.SetShardOverride(k)
		defer viator.SetShardOverride(prev)
		for i := 0; i < b.N; i++ {
			if res := viator.ScenarioS3Smoke().Run(seed); !res.Pass() {
				b.Fatalf("S3S assertions failed at K=%d", k)
			}
		}
	}
}
