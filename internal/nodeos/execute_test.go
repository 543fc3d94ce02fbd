package nodeos

import (
	"errors"
	"testing"

	"viator/internal/allocpin"
	"viator/internal/vm"
)

func newEE(t *testing.T) *EE {
	t.Helper()
	ee, err := New(rsrc(1, 1, 1), 0).RegisterEE("e", rsrc(1, 1, 1), 1000)
	if err != nil {
		t.Fatal(err)
	}
	ee.Bind(1, func(m *vm.Machine) error {
		v, err := m.PopArg()
		if err != nil {
			return err
		}
		return m.PushResult(v + 100)
	})
	return ee
}

// TestExecuteReuseMatchesFreshEE runs a sequence of capsules, several of
// them failing with dirty registers and stack, through one EE and pins
// every run (result, error, gas, final registers, counters) to the same
// capsule run on a fresh EE: nothing leaks from one run into the next.
func TestExecuteReuseMatchesFreshEE(t *testing.T) {
	srcs := []string{
		"PUSH 1\nPUSH 2\nSTORE 5\nPUSH 9\nPUSH 0\nDIV", // div by zero, r5 set, stack [1]
		"LOAD 5\nLOAD 0\nADD\nHALT",
		"loop: PUSH 7\nSTORE 3\nPUSH 8\nJMP loop", // stack overflow
		"HALT",                            // 0 only if the stack was cleared
		"PUSH 4\nSTORE 9\nloop: JMP loop", // out of gas
		"LOAD 9\nHOST 1\nLOAD 1\nADD\nHALT",
		"POP\nHALT", // underflow only if the stack was cleared
		"LOAD 0\nLOAD 1\nMUL\nSTORE 15\nLOAD 15\nHALT",
	}
	reused := newEE(t)
	for i, src := range srcs {
		p := vm.MustAssemble(src)
		fresh := newEE(t)
		r1, m1, e1 := fresh.Execute(p, 6, 7)
		g0, x0, f0 := reused.GasUsed, reused.Executed, reused.Failed
		r2, m2, e2 := reused.Execute(p, 6, 7)
		if r1 != r2 || (e1 == nil) != (e2 == nil) || (e1 != nil && e1.Error() != e2.Error()) {
			t.Fatalf("run %d (%q): fresh %d, %v; reused %d, %v", i, src, r1, e1, r2, e2)
		}
		if fresh.GasUsed != reused.GasUsed-g0 || fresh.Executed != reused.Executed-x0 || fresh.Failed != reused.Failed-f0 {
			t.Fatalf("run %d: fresh gas/ok/failed %d/%d/%d, reused deltas %d/%d/%d", i,
				fresh.GasUsed, fresh.Executed, fresh.Failed,
				reused.GasUsed-g0, reused.Executed-x0, reused.Failed-f0)
		}
		for r := 0; r < vm.NumRegisters; r++ {
			if m1.Reg(r) != m2.Reg(r) {
				t.Fatalf("run %d: register %d fresh %d, reused %d", i, r, m1.Reg(r), m2.Reg(r))
			}
		}
	}
}

// TestExecuteReusesMachine pins the reuse itself: successive top-level
// runs on one EE go through the same machine.
func TestExecuteReusesMachine(t *testing.T) {
	ee := newEE(t)
	_, m1, _ := ee.Execute(vm.MustAssemble("HALT"))
	_, m2, _ := ee.Execute(vm.MustAssemble("PUSH 1\nHALT"))
	if m1 != m2 {
		t.Fatal("second Execute built a new machine")
	}
}

// TestNestedExecute pins a host function that calls Execute on its own
// EE: the inner capsule runs on a machine of its own, so the outer
// capsule's registers and stack survive; both runs are counted and
// billed, inner first; and the outer machine is reused afterwards.
func TestNestedExecute(t *testing.T) {
	ee := newEE(t)
	inner := vm.MustAssemble("PUSH 40\nSTORE 3\nLOAD 0\nHALT") // 4 gas
	var innerM *vm.Machine
	var innerErr error
	ee.Bind(2, func(m *vm.Machine) error {
		v, err := m.PopArg()
		if err != nil {
			return err
		}
		var r int64
		r, innerM, innerErr = ee.Execute(inner, v)
		if innerErr != nil {
			return innerErr
		}
		return m.PushResult(r)
	})
	// Eight plain instructions and one host call (1+9) = 18 gas; the
	// result is 1000 (kept on the stack across the call) + 2 + r3.
	outer := vm.MustAssemble("PUSH 5\nSTORE 3\nPUSH 1000\nPUSH 2\nHOST 2\nADD\nLOAD 3\nADD\nHALT")
	res, m, err := ee.Execute(outer)
	if err != nil || res != 1007 {
		t.Fatalf("outer result %d, %v; want 1007 (outer stack and r3 must survive the inner run)", res, err)
	}
	if innerM == m || innerM.Reg(3) != 40 || m.Reg(3) != 5 {
		t.Fatalf("inner and outer shared a machine: inner r3 %d, outer r3 %d", innerM.Reg(3), m.Reg(3))
	}
	if ee.Executed != 2 || ee.Failed != 0 || ee.GasUsed != 22 {
		t.Fatalf("accounting: executed %d failed %d gas %d; want 2/0/22", ee.Executed, ee.Failed, ee.GasUsed)
	}

	// A failing inner run is counted as failed and aborts the outer one.
	inner = vm.MustAssemble("POP\nHALT")
	if _, _, err := ee.Execute(outer); !errors.Is(err, vm.ErrStack) {
		t.Fatalf("inner failure not surfaced: %v", err)
	}
	if ee.Executed != 2 || ee.Failed != 2 {
		t.Fatalf("accounting after inner failure: executed %d failed %d; want 2/2", ee.Executed, ee.Failed)
	}

	if _, m2, _ := ee.Execute(vm.MustAssemble("HALT")); m2 != m {
		t.Fatal("outer machine not reused after a nested run")
	}
}

// TestExecuteAllocationFree pins a warm Execute of a capsule with
// register arguments and no host calls at zero allocations.
func TestExecuteAllocationFree(t *testing.T) {
	ee := newEE(t)
	p := vm.MustAssemble("LOAD 0\nLOAD 1\nMUL\nSTORE 2\nLOAD 2\nHALT")
	ee.Execute(p, 6, 7)
	allocpin.Zero(t, 100, func() {
		if r, _, err := ee.Execute(p, 6, 7); err != nil || r != 42 {
			t.Fatalf("got %d, %v", r, err)
		}
	}, "(*EE).Execute")
}
