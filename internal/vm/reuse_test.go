package vm

import (
	"errors"
	"testing"
	"testing/quick"

	"viator/internal/allocpin"
)

// reuseCases run back to back through one machine. The failing ones
// leave registers set and values on the stack, which the next program
// must not see.
var reuseCases = []string{
	"LOAD 0\nPUSH 3\nMUL\nSTORE 1\nLOAD 1\nHALT",
	"PUSH 1\nPUSH 2\nSTORE 5\nPUSH 9\nPUSH 0\nDIV",      // div by zero, r5=2, stack [1]
	"LOAD 5\nLOAD 0\nADD\nHALT",                         // sees r5 only if registers leak
	"loop: PUSH 7\nJMP loop",                            // stack overflow
	"HALT",                                              // result 0 only if the stack was cleared
	"PUSH 4\nSTORE 9\nloop: JMP loop",                   // out of gas
	"PUSH 6\nHOST 1\nLOAD 9\nADD\nHALT",                 // host call, sees r9 only if registers leak
	"POP\nHALT",                                         // underflow only if the stack was cleared
	"PUSH 1\nHOST 2\nHALT",                              // unknown host
	"LOAD 0\nLOAD 0\nMUL\nSTORE 15\nLOAD 15\nNEG\nHALT", // touches the last register
}

func reuseHosts() map[int64]HostFunc {
	return map[int64]HostFunc{1: func(m *Machine) error {
		v, err := m.PopArg()
		if err != nil {
			return err
		}
		return m.PushResult(v * 10)
	}}
}

// TestResetMatchesNewMachine pins Reset to "as if new": a machine reset
// between programs gives the same result, error, gas and final registers
// as a fresh NewMachine for each, whatever the previous program left.
func TestResetMatchesNewMachine(t *testing.T) {
	progs := make([]Program, len(reuseCases))
	for i, src := range reuseCases {
		progs[i] = MustAssemble(src)
	}
	hosts := reuseHosts()
	reused := new(Machine)
	if err := quick.Check(func(x int64) bool {
		for i, p := range progs {
			fresh := NewMachine(p, 1000)
			for id, fn := range hosts {
				fresh.Bind(id, fn)
			}
			fresh.SetReg(0, x)
			r1, e1 := fresh.Run()

			reused.Reset(p, 1000, hosts)
			reused.SetReg(0, x)
			r2, e2 := reused.Run()

			if r1 != r2 || !sameErr(e1, e2) || fresh.GasUsed() != reused.GasUsed() || fresh.regs != reused.regs {
				t.Logf("case %d (%q) x=%d: fresh %d/%v/%d reused %d/%v/%d", i, reuseCases[i], x,
					r1, e1, fresh.GasUsed(), r2, e2, reused.GasUsed())
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// TestResetSharesHostTable pins the no-copy contract: the machine calls
// into the caller's table, so a later binding there is visible without
// another Reset.
func TestResetSharesHostTable(t *testing.T) {
	hosts := map[int64]HostFunc{}
	m := new(Machine)
	m.Reset(MustAssemble("HOST 3\nHALT"), 100, hosts)
	if _, err := m.Run(); !errors.Is(err, ErrNoHost) {
		t.Fatalf("unbound host ran: %v", err)
	}
	hosts[3] = func(m *Machine) error { return m.PushResult(33) }
	m.Reset(MustAssemble("HOST 3\nHALT"), 100, hosts)
	if got, err := m.Run(); err != nil || got != 33 {
		t.Fatalf("got %d, %v", got, err)
	}
}

// TestDecodeIntoMatchesDecode checks DecodeInto against Decode over
// well-formed and garbage inputs, decoding every input into one warm
// buffer.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	var buf Program
	check := func(b []byte) bool {
		want, werr := Decode(b)
		got, gerr := DecodeInto(buf, b)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Logf("%x: Decode err %v, DecodeInto err %v", b, werr, gerr)
			return false
		}
		if gerr != nil {
			return got == nil
		}
		buf = got
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	for _, src := range reuseCases {
		if !check(Encode(MustAssemble(src))) {
			t.Fatalf("mismatch on %q", src)
		}
	}
	for _, b := range [][]byte{nil, {0x00}, {magicByte}, {magicByte, 2, byte(PUSH)}, {magicByte, 1, 200},
		append(Encode(Program{{Op: HALT}}), 0xFF), Encode(nil)} {
		if !check(b) {
			t.Fatalf("mismatch on %x", b)
		}
	}
	if err := quick.Check(func(b []byte) bool {
		return check(append([]byte{magicByte}, b...))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeIntoReusesBuffer pins the reuse: a program that fits the
// buffer lands in its backing array, and Decode still returns a non-nil
// empty program for an empty encoding.
func TestDecodeIntoReusesBuffer(t *testing.T) {
	long := Encode(MustAssemble(reuseCases[len(reuseCases)-1]))
	short := Encode(MustAssemble("PUSH 1\nHALT"))
	buf, err := DecodeInto(nil, long)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInto(buf, short)
	if err != nil || len(got) != 2 || &got[0] != &buf[0] {
		t.Fatalf("short decode did not reuse the buffer: len %d, %v", len(got), err)
	}
	if p, err := Decode(Encode(nil)); err != nil || p == nil || len(p) != 0 {
		t.Fatalf("empty program decodes to %#v, %v; want a non-nil empty program", p, err)
	}
}

// TestWarmReuseAllocationFree pins the steady state of a reused machine
// and decode buffer: no allocation per program.
func TestWarmReuseAllocationFree(t *testing.T) {
	code := Encode(MustAssemble(reuseCases[0]))
	buf, _ := DecodeInto(nil, code)
	allocpin.Zero(t, 100, func() {
		buf, _ = DecodeInto(buf, code)
	}, "DecodeInto")

	hosts := reuseHosts()
	p := MustAssemble(reuseCases[6])
	m := new(Machine)
	m.Reset(p, 300, hosts)
	m.Run()
	allocpin.Zero(t, 100, func() {
		m.Reset(p, 300, hosts)
		m.SetReg(0, 5)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}, "(*Machine).Reset")
}
