// Methods: the per-method feedback dimension. The paper has active
// packets carrying "programs such as encoders, compilers and
// compiler-compilers to be mounted on the destination node". Here an
// operator compiles a traffic-policing method from an expression at
// runtime, ships it to a remote ship inside a Code shuttle, and the
// ship's execution environment runs it against live per-packet inputs.
package main

import (
	"fmt"

	"viator"
	"viator/internal/shuttle"
	"viator/internal/topo"
	"viator/internal/vm"
)

func main() {
	cfg := viator.DefaultConfig(4, 5)
	cfg.Graph = topo.Line(4)
	net := viator.NewNetwork(cfg)

	// Compile the policing method: admit a packet when the sender is
	// under its rate limit or the packet is small. Registers 0..2 carry
	// (rate, limit, size) at the remote ship.
	method, err := vm.Compile("rate < limit || size < 64",
		map[string]int{"rate": 0, "limit": 1, "size": 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("compiled policing method: %d instructions, %d bytes on the wire\n",
		len(method), len(vm.Encode(method)))

	// Ship it to the far end of the line inside a Code shuttle.
	sh := net.NewShuttle(shuttle.Code, 0, 3)
	sh.CodeID = "police-v1"
	sh.Code = vm.Encode(method)
	net.SendShuttle(sh, "")
	net.Run(5)

	remote := net.Ship(3)
	if !remote.OS.Store.Has("police-v1") {
		panic("method did not arrive")
	}
	fmt.Println("method mounted at ship 3; evaluating live traffic:")

	prog, _ := remote.OS.Store.Get("police-v1")
	ee, _ := remote.OS.EE("modal")
	for _, tc := range []struct {
		rate, limit, size int64
	}{
		{100, 200, 1500}, // under limit: admit
		{300, 200, 1500}, // over limit, big packet: drop
		{300, 200, 40},   // over limit but tiny: admit
	} {
		verdict, _, err := ee.Execute(prog, tc.rate, tc.limit, tc.size)
		if err != nil {
			panic(err)
		}
		action := "DROP "
		if verdict != 0 {
			action = "ADMIT"
		}
		fmt.Printf("  rate=%3d limit=%3d size=%4d -> %s\n", tc.rate, tc.limit, tc.size, action)
	}
	fmt.Printf("EE accounting: executed=%d gas=%d\n", ee.Executed, ee.GasUsed)

	// The method is replaceable at runtime: compile a stricter one and
	// re-mount it under the same id (upgrade via shuttle).
	strict, _ := vm.Compile("rate < limit && size < 1000",
		map[string]int{"rate": 0, "limit": 1, "size": 2})
	up := net.NewShuttle(shuttle.Code, 0, 3)
	up.CodeID = "police-v1"
	up.Code = vm.Encode(strict)
	net.SendShuttle(up, "")
	net.Run(10)
	prog2, _ := remote.OS.Store.Get("police-v1")
	verdict, _, _ := ee.Execute(prog2, 100, 200, 1500)
	fmt.Printf("after hot upgrade, big packet under limit -> admitted=%v (stricter policy)\n", verdict != 0)
}
