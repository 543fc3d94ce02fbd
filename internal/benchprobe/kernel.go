package benchprobe

import (
	"testing"

	"viator"
	"viator/internal/hw"
	"viator/internal/netsim"
	"viator/internal/roles"
	"viator/internal/shuttle"
	"viator/internal/sim"
	"viator/internal/spec"
	"viator/internal/topo"
	"viator/internal/vm"
)

// --- substrate benchmarks (suite "kernel") ---

// kernelScheduleFire measures the kernel's schedule/fire hot path: one
// After per op, batch-firing every 1024 events. Steady state is 0
// allocs/op — every slot comes off the arena free list.
func kernelScheduleFire(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(1, func() {})
		if k.Pending() > 1024 {
			k.Run(k.Now() + 0.5)
		}
	}
	k.Drain()
}

// kernelScheduleCancel measures the event arena's cancel path: every
// cancelled slot returns to the free list. 0 allocs/op.
func kernelScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(1, func() {}).Cancel()
		if k.Pending() > 1024 {
			k.Run(k.Now() + 0.5)
		}
	}
	k.Drain()
}

// kernelTicker measures one periodic ticker firing per op.
func kernelTicker(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	n := 0
	t := k.Every(1, func() { n++ })
	b.ResetTimer()
	k.Run(float64(b.N))
	b.StopTimer()
	t.Stop()
	if n < b.N-1 {
		b.Fatalf("ticker fired %d of %d", n, b.N)
	}
}

// netsimSendDeliver measures the per-packet transmit path: enqueue onto a
// link's ring queue, one serialization event, one arrival event, delivery
// through the persistent per-link state machine. The single alloc/op is
// the packet itself.
func netsimSendDeliver(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	g := topo.New()
	g.AddNodes(2)
	g.Connect(0, 1, 1)
	n := netsim.New(k, g)
	n.SetLinkProps(0, netsim.LinkProps{Bandwidth: 1e9, Delay: 0.0001, QueueCap: 1 << 30})
	delivered := 0
	n.OnReceive(func(at topo.NodeID, p *netsim.Packet) { delivered++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(0, 1, n.NewPacket(0, 1, 1000, "bench", nil))
		if i%1024 == 1023 {
			k.Drain()
		}
	}
	k.Drain()
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// netsimForwarding measures multi-hop transport: every delivery re-sends
// until the chain end, so one op exercises queueing, arrival and the
// receive callback 4×.
func netsimForwarding(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	g := topo.Line(5)
	n := netsim.New(k, g)
	n.SetAllLinkProps(netsim.LinkProps{Bandwidth: 1e9, Delay: 0.0001, QueueCap: 1 << 30})
	n.OnReceive(func(at topo.NodeID, p *netsim.Packet) {
		if at != p.Dst {
			n.Send(at, at+1, p)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(0, 1, n.NewPacket(0, 4, 1000, "bench", nil))
		if i%256 == 255 {
			k.Drain()
		}
	}
	k.Drain()
}

// vmExecution measures a fresh VM running a 100-iteration countdown loop.
func vmExecution(b *testing.B) {
	p := vm.MustAssemble(`
		PUSH 100
		STORE 0
	loop:
		LOAD 0
		JZ done
		LOAD 0
		PUSH 1
		SUB
		STORE 0
		JMP loop
	done:
		HALT`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.NewMachine(p, 10000).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// shuttleCodec measures one encode/decode round trip of a gene shuttle
// carrying 256 B of code and 512 B of data.
func shuttleCodec(b *testing.B) {
	sh := shuttle.New(1, shuttle.Gene, 0, 1, 2)
	sh.CodeID = "svc"
	sh.Code = make([]byte, 256)
	sh.Data = make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shuttle.Decode(sh.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}

// fabricReconfigure measures loading a parity bitstream into one of the
// fabric's 32 slots.
func fabricReconfigure(b *testing.B) {
	f := hw.NewFabric(8, 64)
	bs := hw.Parity(8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bs.ApplyAt(f, i%32); err != nil {
			b.Fatal(err)
		}
	}
}

// fabricEval measures one evaluation of a configured parity circuit.
func fabricEval(b *testing.B) {
	f := hw.NewFabric(8, 64)
	if err := hw.Parity(8, 8).ApplyAt(f, 0); err != nil {
		b.Fatal(err)
	}
	in := make([]bool, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in[0] = i&1 != 0
		if _, err := f.Eval(in); err != nil {
			b.Fatal(err)
		}
	}
}

// roleFusionPipeline measures one chunk through a four-stage role fuser.
func roleFusionPipeline(b *testing.B) {
	f := roles.NewFuser(4, 0.25)
	c := roles.Chunk{Stream: "s", Bytes: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Seq = i
		f.Process(c)
	}
}

// specStateExploration measures an exhaustive safety check of the
// four-node protocol model.
func specStateExploration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := spec.New(spec.Config{N: 4, Budget: 2})
		if !p.CheckSafety(0).OK() {
			b.Fatal("violation")
		}
	}
}

// replicated measures one replicated-harness run of experiment id per
// op: reps seeds fanned over the worker pool plus the per-cell mean ± CI
// aggregation the paper tables pay for.
func replicated(id string, reps int, seed uint64, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := viator.RunReplicated([]string{id}, reps, seed, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
}
