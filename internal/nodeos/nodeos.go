// Package nodeos models the node operating system layer of a 2G+
// Wandering Network node: execution-environment (EE) registry with
// resource admission control, gas-metered capsule execution, and a code
// store with ANTS-style demand distribution accounting.
//
// The paper classifies network generations by which layer is
// programmable; the NodeOS is the 2G layer (Tempest/Genesis class), and
// ships build on it for 3G/4G capabilities.
package nodeos

import (
	"errors"
	"fmt"
	"sort"

	"viator/internal/vm"
)

// Resources is a node resource vector: CPU in gas units per second,
// memory in bytes, bandwidth in bytes per second.
type Resources struct {
	CPU       float64
	Memory    float64
	Bandwidth float64
}

// Add returns r + s.
func (r Resources) Add(s Resources) Resources {
	return Resources{r.CPU + s.CPU, r.Memory + s.Memory, r.Bandwidth + s.Bandwidth}
}

// Sub returns r - s.
func (r Resources) Sub(s Resources) Resources {
	return Resources{r.CPU - s.CPU, r.Memory - s.Memory, r.Bandwidth - s.Bandwidth}
}

// Fits reports whether r fits entirely within s.
func (r Resources) Fits(s Resources) bool {
	return r.CPU <= s.CPU && r.Memory <= s.Memory && r.Bandwidth <= s.Bandwidth
}

// Admission and execution errors.
var (
	ErrAdmission = errors.New("nodeos: resource admission denied")
	ErrDupEE     = errors.New("nodeos: execution environment already registered")
	ErrNoEE      = errors.New("nodeos: no such execution environment")
)

// NodeOS is one node's operating system: it owns the resource envelope,
// the EE registry and the code store.
type NodeOS struct {
	total Resources
	used  Resources
	ees   map[string]*EE
	order []string
	Store *CodeStore
}

// New creates a NodeOS with the given resource envelope and a code store
// of the given entry capacity.
func New(total Resources, codeCapacity int) *NodeOS {
	return &NodeOS{total: total, ees: make(map[string]*EE), Store: NewCodeStore(codeCapacity)}
}

// Total returns the node's resource envelope.
func (n *NodeOS) Total() Resources { return n.total }

// Used returns the resources currently reserved by registered EEs.
func (n *NodeOS) Used() Resources { return n.used }

// Free returns the unreserved resources.
func (n *NodeOS) Free() Resources { return n.total.Sub(n.used) }

// RegisterEE admits a new execution environment with the given quota.
// Registration fails when the quota does not fit the free envelope (the
// admission control that keeps EEs from starving each other) or the name
// is taken.
func (n *NodeOS) RegisterEE(name string, quota Resources, gasLimit int64) (*EE, error) {
	if _, dup := n.ees[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDupEE, name)
	}
	if !quota.Fits(n.Free()) {
		return nil, fmt.Errorf("%w: %q wants %+v, free %+v", ErrAdmission, name, quota, n.Free())
	}
	ee := &EE{Name: name, Quota: quota, GasLimit: gasLimit, hosts: make(map[int64]vm.HostFunc)}
	n.ees[name] = ee
	n.order = append(n.order, name)
	n.used = n.used.Add(quota)
	return ee, nil
}

// RemoveEE tears down an EE and releases its quota.
func (n *NodeOS) RemoveEE(name string) error {
	ee, ok := n.ees[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoEE, name)
	}
	delete(n.ees, name)
	for i, o := range n.order {
		if o == name {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
	n.used = n.used.Sub(ee.Quota)
	return nil
}

// EE returns a registered environment.
func (n *NodeOS) EE(name string) (*EE, bool) {
	ee, ok := n.ees[name]
	return ee, ok
}

// EEs returns registered environment names in registration order.
func (n *NodeOS) EEs() []string {
	out := make([]string, len(n.order))
	copy(out, n.order)
	return out
}

// EE is one execution environment: a sandbox with a gas limit and a set
// of bound host primitives that capsule code may call.
type EE struct {
	Name     string
	Quota    Resources
	GasLimit int64

	hosts map[int64]vm.HostFunc
	ids   []int64

	// m is the EE's reusable machine, created on the first Execute and
	// reset for every later one; busy marks it as mid-run, so a nested
	// Execute from a host function gets a machine of its own.
	m    *vm.Machine
	busy bool

	// Executed / Failed count capsule runs; GasUsed accumulates.
	Executed uint64
	Failed   uint64
	GasUsed  int64
}

// Bind makes a host primitive available to capsules in this EE.
func (e *EE) Bind(id int64, fn vm.HostFunc) {
	if _, dup := e.hosts[id]; !dup {
		e.ids = append(e.ids, id)
	}
	e.hosts[id] = fn
}

// HostIDs returns the bound primitive ids, sorted.
func (e *EE) HostIDs() []int64 {
	out := append([]int64(nil), e.ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Execute runs a capsule program in this EE with the EE's gas limit and
// host bindings. regs presets registers 0, 1, … in order (argument
// passing). The final register file is readable from the returned
// machine until the next Execute on this EE, which reuses it.
//
//viator:noalloc
func (e *EE) Execute(p vm.Program, regs ...int64) (result int64, m *vm.Machine, err error) {
	m = e.m
	nested := e.busy
	if m == nil || nested {
		m = new(vm.Machine) //viator:alloc-ok once per EE, plus one per nested Execute from a host function
		if !nested {
			e.m = m
		}
	}
	m.Reset(p, e.GasLimit, e.hosts)
	for i, v := range regs {
		m.SetReg(i, v) //viator:alloc-ok panic path inside inlined SetReg: more than NumRegisters arguments is a caller bug
	}
	e.busy = true
	result, err = m.Run()
	e.busy = nested
	e.GasUsed += m.GasUsed()
	if err != nil {
		e.Failed++
		return 0, m, err
	}
	e.Executed++
	return result, m, nil
}
