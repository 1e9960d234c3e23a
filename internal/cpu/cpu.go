// Package cpu implements the NB32 functional processor simulator that
// generates the paper's address traces: every committed instruction yields
// one fetch address (the IA bus) and, for loads/stores, one data address
// (the DA bus), mirroring the SHADE/cachesim5 methodology of Sec. 5.1.
package cpu

import (
	"fmt"
	"math"

	"nanobus/internal/isa"
	"nanobus/internal/trace"
)

// Counters classify committed instructions — the mix statistics used to
// sanity-check that a synthetic workload behaves like the program class it
// imitates.
type Counters struct {
	Loads, Stores uint64
	// Branches counts conditional branches; Taken those that redirected.
	Branches, Taken uint64
	// Jumps counts jal/jalr.
	Jumps uint64
	// FPOps counts floating-point arithmetic/conversion instructions.
	FPOps uint64
}

// CPU is the architectural state of one NB32 core.
type CPU struct {
	// Regs are the integer registers; Regs[0] reads as zero.
	Regs [isa.NumRegs]uint32
	// FRegs are the FP registers.
	FRegs [isa.NumRegs]float32
	// PC is the program counter.
	PC uint32
	// Mem is the memory.
	Mem *Memory
	// Halted is set by the halt instruction.
	Halted bool
	// Instret counts committed instructions.
	Instret uint64
	// Counters classify the committed instructions.
	Counters Counters
}

// New builds a CPU over mem starting at entry.
func New(mem *Memory, entry uint32) *CPU {
	return &CPU{Mem: mem, PC: entry}
}

// LoadProgram assembles nothing — it loads an assembled program and points
// the PC at its entry.
func LoadProgram(p *isa.Program) *CPU {
	mem := NewMemory()
	mem.LoadProgram(p)
	return New(mem, p.Entry)
}

// Event reports what one committed instruction put on the address buses.
type Event struct {
	// Fetch is the instruction's own address.
	Fetch uint32
	// Mem reports a data access with its address; Store distinguishes
	// stores from loads.
	Mem   bool
	Addr  uint32
	Store bool
}

// Step executes one instruction and reports its bus event. Executing while
// halted is an error.
//
//nanolint:hotpath one call per committed instruction, the whole cost of trace capture; allocates nothing
func (c *CPU) Step() (Event, error) {
	var ev Event
	if c.Halted {
		return ev, fmt.Errorf("cpu: step while halted at pc=%#x", c.PC)
	}
	ev.Fetch = c.PC
	d, err := c.Mem.fetch(c.PC)
	if err != nil {
		return ev, fmt.Errorf("cpu: fetch: %w", err)
	}
	in, class := d.in, d.class
	next := c.PC + 4

	// a and b are the integer source operands; r0 reads as zero.
	var a, b uint32
	if in.Rs1 != 0 {
		a = c.Regs[in.Rs1]
	}
	if in.Rs2 != 0 {
		b = c.Regs[in.Rs2]
	}

	switch in.Op {
	case isa.OpAdd:
		c.setR(in.Rd, a+b)
	case isa.OpSub:
		c.setR(in.Rd, a-b)
	case isa.OpAnd:
		c.setR(in.Rd, a&b)
	case isa.OpOr:
		c.setR(in.Rd, a|b)
	case isa.OpXor:
		c.setR(in.Rd, a^b)
	case isa.OpSll:
		c.setR(in.Rd, a<<(b&31))
	case isa.OpSrl:
		c.setR(in.Rd, a>>(b&31))
	case isa.OpSra:
		c.setR(in.Rd, uint32(int32(a)>>(b&31)))
	case isa.OpSlt:
		c.setR(in.Rd, b2u(int32(a) < int32(b)))
	case isa.OpSltu:
		c.setR(in.Rd, b2u(a < b))
	case isa.OpMul:
		c.setR(in.Rd, a*b)
	case isa.OpDiv:
		if b == 0 {
			c.setR(in.Rd, ^uint32(0))
		} else {
			c.setR(in.Rd, uint32(int32(a)/int32(b)))
		}
	case isa.OpRem:
		if b == 0 {
			c.setR(in.Rd, a)
		} else {
			c.setR(in.Rd, uint32(int32(a)%int32(b)))
		}

	case isa.OpAddi:
		c.setR(in.Rd, a+uint32(in.Imm))
	case isa.OpAndi:
		c.setR(in.Rd, a&uint32(in.Imm))
	case isa.OpOri:
		c.setR(in.Rd, a|uint32(in.Imm))
	case isa.OpXori:
		c.setR(in.Rd, a^uint32(in.Imm))
	case isa.OpSlti:
		c.setR(in.Rd, b2u(int32(a) < in.Imm))
	case isa.OpSlli:
		c.setR(in.Rd, a<<(uint32(in.Imm)&31))
	case isa.OpSrli:
		c.setR(in.Rd, a>>(uint32(in.Imm)&31))
	case isa.OpSrai:
		c.setR(in.Rd, uint32(int32(a)>>(uint32(in.Imm)&31)))

	case isa.OpLui:
		c.setR(in.Rd, uint32(in.Imm))

	case isa.OpLw, isa.OpLh, isa.OpLhu, isa.OpLb, isa.OpLbu, isa.OpFlw:
		addr := a + uint32(in.Imm)
		ev.Mem, ev.Addr = true, addr
		switch in.Op {
		case isa.OpLw:
			v, err := c.Mem.ReadWord(addr)
			if err != nil {
				return ev, err
			}
			c.setR(in.Rd, v)
		case isa.OpLh:
			v, err := c.Mem.ReadHalf(addr)
			if err != nil {
				return ev, err
			}
			c.setR(in.Rd, uint32(int32(int16(v))))
		case isa.OpLhu:
			v, err := c.Mem.ReadHalf(addr)
			if err != nil {
				return ev, err
			}
			c.setR(in.Rd, uint32(v))
		case isa.OpLb:
			c.setR(in.Rd, uint32(int32(int8(c.Mem.LoadByte(addr)))))
		case isa.OpLbu:
			c.setR(in.Rd, uint32(c.Mem.LoadByte(addr)))
		case isa.OpFlw:
			v, err := c.Mem.ReadWord(addr)
			if err != nil {
				return ev, err
			}
			c.FRegs[in.Rd] = math.Float32frombits(v)
		}

	case isa.OpSw, isa.OpSh, isa.OpSb, isa.OpFsw:
		addr := a + uint32(in.Imm)
		ev.Mem, ev.Addr, ev.Store = true, addr, true
		switch in.Op {
		case isa.OpSw:
			if err := c.Mem.WriteWord(addr, b); err != nil {
				return ev, err
			}
		case isa.OpSh:
			if err := c.Mem.WriteHalf(addr, uint16(b)); err != nil {
				return ev, err
			}
		case isa.OpSb:
			c.Mem.StoreByte(addr, byte(b))
		case isa.OpFsw:
			if err := c.Mem.WriteWord(addr, math.Float32bits(c.FRegs[in.Rs2])); err != nil {
				return ev, err
			}
		}

	case isa.OpBeq:
		if a == b {
			next = c.PC + uint32(in.Imm)
		}
	case isa.OpBne:
		if a != b {
			next = c.PC + uint32(in.Imm)
		}
	case isa.OpBlt:
		if int32(a) < int32(b) {
			next = c.PC + uint32(in.Imm)
		}
	case isa.OpBge:
		if int32(a) >= int32(b) {
			next = c.PC + uint32(in.Imm)
		}
	case isa.OpBltu:
		if a < b {
			next = c.PC + uint32(in.Imm)
		}
	case isa.OpBgeu:
		if a >= b {
			next = c.PC + uint32(in.Imm)
		}

	case isa.OpJal:
		c.setR(in.Rd, c.PC+4)
		next = c.PC + uint32(in.Imm)
	case isa.OpJalr:
		t := (a + uint32(in.Imm)) &^ 3
		c.setR(in.Rd, c.PC+4)
		next = t

	case isa.OpFadd:
		c.FRegs[in.Rd] = c.FRegs[in.Rs1] + c.FRegs[in.Rs2]
	case isa.OpFsub:
		c.FRegs[in.Rd] = c.FRegs[in.Rs1] - c.FRegs[in.Rs2]
	case isa.OpFmul:
		c.FRegs[in.Rd] = c.FRegs[in.Rs1] * c.FRegs[in.Rs2]
	case isa.OpFdiv:
		c.FRegs[in.Rd] = c.FRegs[in.Rs1] / c.FRegs[in.Rs2]
	case isa.OpFmin:
		c.FRegs[in.Rd] = float32(math.Min(float64(c.FRegs[in.Rs1]), float64(c.FRegs[in.Rs2])))
	case isa.OpFmax:
		c.FRegs[in.Rd] = float32(math.Max(float64(c.FRegs[in.Rs1]), float64(c.FRegs[in.Rs2])))
	case isa.OpFeq:
		c.setR(in.Rd, b2u(c.FRegs[in.Rs1] == c.FRegs[in.Rs2])) //nanolint:ignore floateq Feq implements the ISA's IEEE-754 equality semantics
	case isa.OpFlt:
		c.setR(in.Rd, b2u(c.FRegs[in.Rs1] < c.FRegs[in.Rs2]))
	case isa.OpFcvtws:
		c.setR(in.Rd, uint32(int32(c.FRegs[in.Rs1])))
	case isa.OpFcvtsw:
		c.FRegs[in.Rd] = float32(int32(a))
	case isa.OpFmvxw:
		c.setR(in.Rd, math.Float32bits(c.FRegs[in.Rs1]))
	case isa.OpFmvwx:
		c.FRegs[in.Rd] = math.Float32frombits(a)

	case isa.OpHalt:
		c.Halted = true
		next = c.PC

	default:
		w, err := c.Mem.ReadWord(c.PC)
		if err == nil {
			err = fmt.Errorf("cpu: invalid instruction %#08x at pc=%#x", w, c.PC)
		}
		return ev, err
	}

	c.Counters.count(class, next != ev.Fetch+4)
	c.PC = next
	c.Instret++
	return ev, nil
}

// Instruction classes, one per Counters field an instruction can bump.
const (
	classOther uint8 = iota
	classLoad
	classStore
	classBranch
	classJump
	classFP
)

// classOf maps an opcode to the Counters field it bumps: loads and stores
// (FP ones included) count as memory operations only, and FPOps counts
// the remaining FP-register instructions.
func classOf(op isa.Op) uint8 {
	info := isa.InfoOf(op)
	switch {
	case info.Load:
		return classLoad
	case info.Store:
		return classStore
	case info.Fmt == isa.FmtB:
		return classBranch
	case op == isa.OpJal || op == isa.OpJalr:
		return classJump
	case info.FP:
		return classFP
	}
	return classOther
}

// count bumps the field that an instruction of the given class feeds;
// taken reports whether a branch redirected the PC.
func (k *Counters) count(class uint8, taken bool) {
	switch class {
	case classLoad:
		k.Loads++
	case classStore:
		k.Stores++
	case classBranch:
		k.Branches++
		if taken {
			k.Taken++
		}
	case classJump:
		k.Jumps++
	case classFP:
		k.FPOps++
	}
}

// setR writes integer register i; writes to r0 are dropped.
func (c *CPU) setR(i uint8, v uint32) {
	if i != 0 {
		c.Regs[i] = v
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// TraceSource adapts a CPU to trace.Source: one Cycle per committed
// instruction. When the program halts before the consumer stops pulling,
// the CPU restarts from the configured entry point (SPEC-style programs
// run far longer than any trace window; restarting keeps sources infinite
// like the paper's 300M-cycle windows require). A Step error terminates
// the stream and is retained in Err.
type TraceSource struct {
	CPU   *CPU
	entry uint32
	err   error
	// Restarts counts how many times the program wrapped around.
	Restarts int
}

// NewTraceSource wraps the CPU; entry is the restart address.
func NewTraceSource(c *CPU, entry uint32) *TraceSource {
	return &TraceSource{CPU: c, entry: entry}
}

// Next implements trace.Source.
func (ts *TraceSource) Next() (trace.Cycle, bool) {
	if ts.err != nil {
		return trace.Cycle{}, false
	}
	if ts.CPU.Halted {
		ts.CPU.Halted = false
		ts.CPU.PC = ts.entry
		ts.Restarts++
	}
	ev, err := ts.CPU.Step()
	if err != nil {
		ts.err = err
		return trace.Cycle{}, false
	}
	return trace.Cycle{
		IValid: true,
		IAddr:  ev.Fetch,
		DValid: ev.Mem,
		DAddr:  ev.Addr,
		DStore: ev.Store,
	}, true
}

// Err returns the error that terminated the stream, if any.
func (ts *TraceSource) Err() error { return ts.err }
