package ship

import (
	"testing"

	"viator/internal/allocpin"
	"viator/internal/kq"
	"viator/internal/ployon"
	"viator/internal/roles"
	"viator/internal/shuttle"
	"viator/internal/vm"
)

// jetCode assembles and encodes a jet program.
func jetCode(src string) []byte { return vm.Encode(vm.MustAssemble(src)) }

// failingJets each fail on the modal EE's machine and leave it dirty:
// registers set, values on the stack, or a half-decoded buffer.
var failingJets = []struct {
	name string
	code []byte
}{
	{"out of gas", jetCode("PUSH 4\nSTORE 5\nloop: JMP loop")},
	{"stack overflow", jetCode("PUSH 9\nSTORE 3\nloop: PUSH 1\nJMP loop")},
	{"div by zero", jetCode("PUSH 1\nPUSH 7\nSTORE 9\nPUSH 1\nPUSH 0\nDIV")},
	{"bad opcode", vm.Encode(vm.Program{{Op: vm.PUSH, Arg: 1}, {Op: vm.Op(200)}})},
}

// validJet reads registers 3, 5 and 9, which only a leak from an earlier
// run would make non-zero, and replicates twice. On ship 1 it returns
// 1 + 2 = 3.
var validJet = jetCode(`
	LOAD 5
	LOAD 3
	ADD
	LOAD 9
	ADD
	LOAD 0      ; ship id
	ADD
	PUSH 2
	HOST 7      ; replicate
	ADD
	HALT`)

// jetOutcome is everything a jet dock changes that a caller can see.
type jetOutcome struct {
	result     int64
	latency    float64
	replicas   []shuttle.Shuttle
	executed   uint64 // ship counters, as deltas over the dock
	execFailed uint64
	docked     uint64
	eeExecuted uint64 // modal EE counters, as deltas over the dock
	eeFailed   uint64
	eeGas      int64
}

func dockJet(t *testing.T, s *Ship, id ployon.ID, code []byte, now float64) (jetOutcome, error) {
	t.Helper()
	ee, _ := s.OS.EE("modal")
	before := *s
	eeBefore := *ee
	jet := congruentShuttle(s, id, shuttle.Jet)
	jet.Code = code
	res, err := s.Dock(jet, now)
	out := jetOutcome{
		result: res.Result, latency: res.Latency,
		executed: s.Executed - before.Executed, execFailed: s.ExecFailed - before.ExecFailed,
		docked:     s.Docked - before.Docked,
		eeExecuted: ee.Executed - eeBefore.Executed, eeFailed: ee.Failed - eeBefore.Failed,
		eeGas: ee.GasUsed - eeBefore.GasUsed,
	}
	for _, r := range res.Replicas {
		out.replicas = append(out.replicas, *r)
	}
	return out, err
}

func sameOutcome(a, b jetOutcome) bool {
	if a.result != b.result || a.latency != b.latency || len(a.replicas) != len(b.replicas) ||
		a.executed != b.executed || a.execFailed != b.execFailed || a.docked != b.docked ||
		a.eeExecuted != b.eeExecuted || a.eeFailed != b.eeFailed || a.eeGas != b.eeGas {
		return false
	}
	for i := range a.replicas {
		ra, rb := a.replicas[i], b.replicas[i]
		if ra.ID != rb.ID || ra.Generation != rb.Generation || ra.Src != rb.Src ||
			string(ra.Code) != string(rb.Code) {
			return false
		}
	}
	return true
}

// TestJetAfterFailureMatchesFreshShip pins the reused jet path against a
// ship that never ran a jet: after a jet that fails (out of gas, stack
// overflow, a runtime error, an undecodable opcode), a valid jet gives
// the same result, replicas, latency, gas and counters as on a fresh
// ship.
func TestJetAfterFailureMatchesFreshShip(t *testing.T) {
	want, err := dockJet(t, newAlive(t, 1, ployon.ClassAgent), 50, validJet, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want.result != 3 || len(want.replicas) != 2 {
		t.Fatalf("fresh ship: result %d, %d replicas; want 3, 2", want.result, len(want.replicas))
	}
	all := newAlive(t, 1, ployon.ClassAgent)
	for _, f := range failingJets {
		s := newAlive(t, 1, ployon.ClassAgent)
		for _, sp := range []*Ship{s, all} {
			if _, err := dockJet(t, sp, 40, f.code, 2); err == nil {
				t.Fatalf("%s: jet succeeded", f.name)
			}
		}
		got, err := dockJet(t, s, 50, validJet, 3)
		if err != nil || !sameOutcome(got, want) {
			t.Fatalf("after %s: %+v, %v; fresh ship %+v", f.name, got, err, want)
		}
	}
	got, err := dockJet(t, all, 50, validJet, 3)
	if err != nil || !sameOutcome(got, want) {
		t.Fatalf("after every failing jet: %+v, %v; fresh ship %+v", got, err, want)
	}
}

// TestHostsOutsideJetSeeNoJet pins the context swap: once a jet has run,
// code executing outside a jet (modal or auxiliary EE) gets 0 from
// HostReplicate without creating a replica, and observes facts at time
// 0, not at the last jet's docking time.
func TestHostsOutsideJetSeeNoJet(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassAgent)
	if err := s.InstallAux(roles.Caching); err != nil {
		t.Fatal(err)
	}
	if out, err := dockJet(t, s, 7, validJet, 5); err != nil || len(out.replicas) != 2 {
		t.Fatalf("jet: %+v, %v", out, err)
	}
	nextID := s.nextID
	for _, name := range []string{"modal", "aux:" + roles.Caching.String()} {
		ee, ok := s.OS.EE(name)
		if !ok {
			t.Fatalf("no EE %q", name)
		}
		res, _, err := ee.Execute(vm.MustAssemble("PUSH 3\nHOST 7\nHALT"))
		if err != nil || res != 0 {
			t.Fatalf("%s: HostReplicate outside a jet gave %d, %v", name, res, err)
		}
	}
	if s.nextID != nextID || len(s.jet.replicas) != 0 {
		t.Fatalf("replica created outside a jet: nextID %d → %d, %d pending", nextID, s.nextID, len(s.jet.replicas))
	}
	ee, _ := s.OS.EE("modal")
	if _, _, err := ee.Execute(vm.MustAssemble("PUSH 11\nPUSH 9\nHOST 3\nHALT")); err != nil {
		t.Fatal(err)
	}
	if a := s.KB.Activation(kq.FactID("fact:11"), 0); a != 9 {
		t.Fatalf("fact observed outside a jet has activation %v at t=0, want 9 (observed at t=0)", a)
	}
}

// TestRunJetDropsJetContext pins that a ship keeps no reference to a jet
// shuttle or its replicas once the dock returns, whether the jet
// succeeded or failed; only the decoded program buffer stays.
func TestRunJetDropsJetContext(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassAgent)
	if s.jet != nil {
		t.Fatal("a ship that never ran a jet holds jet state")
	}
	for _, code := range [][]byte{validJet, failingJets[2].code, failingJets[3].code} {
		dockJet(t, s, 9, code, 4)
		if jc := s.jet; jc.sh != nil || jc.replicas != nil || jc.now != 0 || s.runningJet() != nil {
			t.Fatalf("jet context kept after the dock: %+v", jc)
		}
	}
}

// TestWarmJetDockAllocations pins a warm dock of a jet that uses the
// host interface but does not replicate: the DockResult is its only
// allocation (host bindings, machine and decode buffer are reused).
func TestWarmJetDockAllocations(t *testing.T) {
	s := newAlive(t, 1, ployon.ClassAgent)
	jet := congruentShuttle(s, 3, shuttle.Jet)
	jet.Code = jetCode(`
		HOST 1      ; role
		HOST 2      ; set it again (no switch)
		POP
		HOST 4      ; class
		POP
		PUSH 3
		HOST 5      ; next-step
		PUSH 0
		HOST 7      ; replicate none
		HALT`)
	if _, err := s.Dock(jet, 1); err != nil {
		t.Fatal(err)
	}
	allocpin.Max(t, 100, 1, func() {
		if _, err := s.Dock(jet, 1); err != nil {
			t.Fatal(err)
		}
	})
}
