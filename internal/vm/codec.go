package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire format: magic byte, varint instruction count, then per instruction
// one opcode byte plus (for operand-carrying opcodes) a zigzag varint.
// Compactness matters: encoded size is the shuttle's on-wire code weight.

// ErrCodec reports a malformed encoded program.
var ErrCodec = errors.New("vm: malformed program encoding")

const magicByte = 0xA7

// Encode serializes p into the compact wire format.
func Encode(p Program) []byte {
	buf := make([]byte, 0, 2+len(p)*2)
	buf = append(buf, magicByte)
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	for _, in := range p {
		buf = append(buf, byte(in.Op))
		if in.Op.hasOperand() {
			buf = binary.AppendVarint(buf, in.Arg)
		}
	}
	return buf
}

// Decode parses the wire format back into a Program, validating opcodes.
func Decode(b []byte) (Program, error) { return DecodeInto(nil, b) }

// DecodeInto is Decode into dst's backing array: the same validation, but
// a dst with enough capacity is reused instead of allocating, so a ship
// decoding one jet after another keeps a single buffer. On error it
// returns nil and dst's contents are unspecified.
//
//viator:noalloc
func DecodeInto(dst Program, b []byte) (Program, error) {
	if len(b) == 0 || b[0] != magicByte {
		return nil, fmt.Errorf("%w: bad magic", ErrCodec) //viator:alloc-ok error path: malformed code is refused, never the steady state
	}
	b = b[1:]
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad count", ErrCodec) //viator:alloc-ok error path: malformed code is refused, never the steady state
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: unreasonable program size %d", ErrCodec, n) //viator:alloc-ok error path: malformed code is refused, never the steady state
	}
	b = b[k:]
	prog := dst[:0]
	if dst == nil || uint64(cap(dst)) < n { // nil: Decode returns a non-nil empty program for n == 0
		prog = make(Program, 0, n) //viator:alloc-ok first decode or a longer program grows the buffer; warm decodes reuse it
	}
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return nil, fmt.Errorf("%w: truncated at instruction %d", ErrCodec, i) //viator:alloc-ok error path: malformed code is refused, never the steady state
		}
		op := Op(b[0])
		if op >= numOps {
			return nil, fmt.Errorf("%w: opcode %d", ErrCodec, op) //viator:alloc-ok error path: malformed code is refused, never the steady state
		}
		b = b[1:]
		in := Instr{Op: op}
		if op.hasOperand() {
			v, k := binary.Varint(b)
			if k <= 0 {
				return nil, fmt.Errorf("%w: truncated operand at %d", ErrCodec, i) //viator:alloc-ok error path: malformed code is refused, never the steady state
			}
			in.Arg = v
			b = b[k:]
		}
		prog = append(prog, in)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(b)) //viator:alloc-ok error path: malformed code is refused, never the steady state
	}
	return prog, nil
}
