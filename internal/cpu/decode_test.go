package cpu

import (
	"encoding/binary"
	"slices"
	"testing"

	"nanobus/internal/isa"
)

// TestSelfModifyingCode overwrites an instruction after it has executed,
// so its decode is cached, and requires the next pass to run the new
// instruction. The patched slot first runs `addi r4, r4, 3` (r4 = 3);
// the loop then rewrites it into `slli r4, r4, 3`, so the second pass
// gives r4 = 3<<3 = 24. A stale decode would rerun the addi: r4 = 6.
func TestSelfModifyingCode(t *testing.T) {
	for _, tc := range []struct {
		name string
		// store moves the new instruction (word in r3) into the slot at
		// r1; sh and sb rewrite only the bytes that hold the opcode.
		store string
	}{
		{"sw", "sw r3, 0(r1)"},
		{"sh", "srli r3, r3, 16\n\t\tsh r3, 2(r1)"},
		{"sb", "srli r3, r3, 24\n\t\tsb r3, 3(r1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := run(t, `
		.org 0x1000
		la r1, patch
		la r2, replacement
		addi r6, r0, 2
	loop:
		lw r3, 0(r2)
	patch:
		addi r4, r4, 3
		`+tc.store+`
		addi r6, r6, -1
		bne r6, r0, loop
		halt
	replacement:
		slli r4, r4, 3
	`, 100)
			if c.Regs[4] != 24 {
				t.Errorf("r4 = %d, want 24 (6 means the overwritten instruction ran from a stale decode)", c.Regs[4])
			}
			if c.Regs[6] != 0 {
				t.Errorf("loop counter r6 = %d, want 0", c.Regs[6])
			}
		})
	}

	t.Run("WriteBytes", func(t *testing.T) {
		p, err := isa.Assemble(`
		.org 0x1000
		addi r4, r4, 3
		halt
	`)
		if err != nil {
			t.Fatal(err)
		}
		c := LoadProgram(p)
		for !c.Halted {
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if c.Regs[4] != 3 {
			t.Fatalf("first run: r4 = %d, want 3", c.Regs[4])
		}
		w, err := isa.Encode(isa.Inst{Op: isa.OpSlli, Rd: 4, Rs1: 4, Imm: 3})
		if err != nil {
			t.Fatal(err)
		}
		c.Mem.WriteBytes(0x1000, binary.LittleEndian.AppendUint32(nil, w))
		c.Halted, c.PC = false, p.Entry
		for !c.Halted {
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if c.Regs[4] != 24 {
			t.Errorf("after WriteBytes: r4 = %d, want 24 (6 means a stale decode ran)", c.Regs[4])
		}
	})
}

// oracleCounters is the classification Step made before decodes were
// cached: a switch over isa.InfoOf on every committed instruction.
func oracleCounters(op isa.Op, taken bool) Counters {
	var k Counters
	info := isa.InfoOf(op)
	switch {
	case info.Load:
		k.Loads++
	case info.Store:
		k.Stores++
	case info.Fmt == isa.FmtB:
		k.Branches++
		if taken {
			k.Taken++
		}
	case op == isa.OpJal || op == isa.OpJalr:
		k.Jumps++
	}
	if info.FP && !info.Load && !info.Store {
		k.FPOps++
	}
	return k
}

// TestClassMatchesInfoOf executes every one of the 64 opcode values under
// operand pairs that take every branch both ways, and requires the
// Counters increments driven by the cached class byte to equal the
// InfoOf oracle's.
func TestClassMatchesInfoOf(t *testing.T) {
	const pc = 0x1000
	var seen Counters
	for v := uint32(0); v < 64; v++ {
		// rd = r1, rs1 = r2, rs2 = r3; the immediate bits this leaves
		// keep every load and store address word-aligned.
		w := v<<26 | 1<<22 | 2<<18 | 3<<14
		for _, ops := range [][2]uint32{{0, 0}, {8, 0}, {0, 8}} {
			mem := NewMemory()
			if err := mem.WriteWord(pc, w); err != nil {
				t.Fatal(err)
			}
			c := New(mem, pc)
			c.Regs[2], c.Regs[3] = ops[0], ops[1]
			op := isa.Decode(w).Op
			_, err := c.Step()
			if op == isa.OpInvalid {
				if err == nil {
					t.Errorf("opcode value %d executed", v)
				}
				if c.Counters != (Counters{}) {
					t.Errorf("opcode value %d: invalid instruction counted: %+v", v, c.Counters)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", isa.InfoOf(op).Name, err)
			}
			want := oracleCounters(op, c.PC != pc+4)
			if c.Counters != want {
				t.Errorf("%s with operands %v: counters %+v, want %+v", isa.InfoOf(op).Name, ops, c.Counters, want)
			}
			seen.Loads += c.Counters.Loads
			seen.Stores += c.Counters.Stores
			seen.Branches += c.Counters.Branches
			seen.Taken += c.Counters.Taken
			seen.Jumps += c.Counters.Jumps
			seen.FPOps += c.Counters.FPOps
		}
	}
	if seen.Loads == 0 || seen.Stores == 0 || seen.Jumps == 0 || seen.FPOps == 0 ||
		seen.Taken == 0 || seen.Taken == seen.Branches {
		t.Errorf("some class never exercised, or branches never both ways: %+v", seen)
	}
}

// fuzzOp is one step of a FuzzDecodeCache script: 7 bytes holding the
// operation, an address selector and a value.
func fuzzOp(op byte, sel uint16, v uint32) []byte {
	b := binary.LittleEndian.AppendUint16([]byte{op}, sel)
	return binary.LittleEndian.AppendUint32(b, v)
}

// FuzzDecodeCache interleaves writes through all four write methods with
// fetches over two adjacent pages, concentrating on their boundary. Every
// fetch must return the decode of the word currently in memory.
func FuzzDecodeCache(f *testing.F) {
	addi, err := isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 4, Rs1: 4, Imm: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fuzzOp(0, 0, 0))
	f.Add(slices.Concat(
		fuzzOp(0, 60, 0),    // fetch the last word of page 1
		fuzzOp(0, 64, 0),    // and the first word of page 2
		fuzzOp(1, 60, addi), // WriteWord over the first
		fuzzOp(0, 60, 0),
		fuzzOp(3, 63, 0xFF), // StoreByte into its opcode byte
		fuzzOp(0, 60, 0),
		fuzzOp(4, 62, addi), // WriteBytes across the boundary
		fuzzOp(0, 60, 0),
		fuzzOp(0, 64, 0),
		fuzzOp(2, 66, 0x48), // WriteHalf into the upper half of the second
		fuzzOp(0, 64, 0),
	))
	f.Fuzz(func(t *testing.T, script []byte) {
		const base, span = pageSize, 2 * pageSize // pages 1 and 2
		m := NewMemory()
		for ; len(script) >= 7; script = script[7:] {
			op := script[0] % 5
			sel := binary.LittleEndian.Uint16(script[1:3])
			v := binary.LittleEndian.Uint32(script[3:7])
			// A selector below 0x8000 addresses the 128 bytes around the
			// page boundary; the rest spread over both pages.
			addr := uint32(base + pageSize - 64 + int(sel)%128)
			if sel >= 0x8000 {
				addr = uint32(base + int(sel)%span)
			}
			switch op {
			case 0:
				addr &^= 3
				d, err := m.fetch(addr)
				if err != nil {
					t.Fatal(err)
				}
				w, err := m.ReadWord(addr)
				if err != nil {
					t.Fatal(err)
				}
				want := isa.Decode(w)
				if d.in != want || !d.valid {
					t.Fatalf("fetch %#x: cached %+v, memory holds %#08x = %+v", addr, d.in, w, want)
				}
				var got Counters
				got.count(d.class, true)
				if wantK := oracleCounters(want.Op, true); got != wantK {
					t.Fatalf("fetch %#x (%s): class %d counts %+v, want %+v", addr, want, d.class, got, wantK)
				}
			case 1:
				if err := m.WriteWord(addr&^3, v); err != nil {
					t.Fatal(err)
				}
			case 2:
				if err := m.WriteHalf(addr&^1, uint16(v)); err != nil {
					t.Fatal(err)
				}
			case 3:
				m.StoreByte(addr, byte(v))
			case 4:
				// 1 to 8 bytes, so writes of every length cross the boundary.
				b := binary.LittleEndian.AppendUint32(nil, v)
				b = binary.LittleEndian.AppendUint32(b, v*2654435761)
				m.WriteBytes(addr, b[:1+v%8])
			}
		}
	})
}
