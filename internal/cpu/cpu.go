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
//nanolint:hotpath one call per instruction stepped by a caller; allocates nothing
func (c *CPU) Step() (Event, error) {
	if c.Halted {
		var ev Event
		return ev, fmt.Errorf("cpu: step while halted at pc=%#x", c.PC)
	}
	ev, _, err := c.run(1)
	return ev, err
}

// run is the one execution loop: Step, TraceSource.Next and
// TraceSource.Skip all go through it. It executes instructions until n
// have committed, one halts the CPU or one fails, and returns the bus
// event of the last instruction it executed, how many committed and the
// failure. A halted CPU executes nothing. A failing instruction commits
// nothing: the PC stays on it.
//
//nanolint:hotpath one iteration per committed instruction, the whole cost of trace capture; allocates nothing
func (c *CPU) run(n uint64) (ev Event, done uint64, err error) {
	m := c.Mem
	pc := c.PC
loop:
	for done < n && !c.Halted {
		ev = Event{Fetch: pc}
		d := m.fetchHit(pc)
		if d == nil {
			if d, err = m.fetch(pc); err != nil {
				err = fmt.Errorf("cpu: fetch: %w", err)
				break loop
			}
		}
		in, class := d.in, d.class
		next := pc + 4

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
			var v uint32
			switch in.Op {
			case isa.OpLw, isa.OpFlw:
				v, err = m.ReadWord(addr)
			case isa.OpLh:
				var h uint16
				h, err = m.ReadHalf(addr)
				v = uint32(int32(int16(h)))
			case isa.OpLhu:
				var h uint16
				h, err = m.ReadHalf(addr)
				v = uint32(h)
			case isa.OpLb:
				v = uint32(int32(int8(m.LoadByte(addr))))
			case isa.OpLbu:
				v = uint32(m.LoadByte(addr))
			}
			if err != nil {
				break loop
			}
			if in.Op == isa.OpFlw {
				c.FRegs[in.Rd] = math.Float32frombits(v)
			} else {
				c.setR(in.Rd, v)
			}

		case isa.OpSw, isa.OpSh, isa.OpSb, isa.OpFsw:
			addr := a + uint32(in.Imm)
			ev.Mem, ev.Addr, ev.Store = true, addr, true
			switch in.Op {
			case isa.OpSw:
				err = m.WriteWord(addr, b)
			case isa.OpSh:
				err = m.WriteHalf(addr, uint16(b))
			case isa.OpSb:
				m.StoreByte(addr, byte(b))
			case isa.OpFsw:
				err = m.WriteWord(addr, math.Float32bits(c.FRegs[in.Rs2]))
			}
			if err != nil {
				break loop
			}

		case isa.OpBeq:
			if a == b {
				next = pc + uint32(in.Imm)
			}
		case isa.OpBne:
			if a != b {
				next = pc + uint32(in.Imm)
			}
		case isa.OpBlt:
			if int32(a) < int32(b) {
				next = pc + uint32(in.Imm)
			}
		case isa.OpBge:
			if int32(a) >= int32(b) {
				next = pc + uint32(in.Imm)
			}
		case isa.OpBltu:
			if a < b {
				next = pc + uint32(in.Imm)
			}
		case isa.OpBgeu:
			if a >= b {
				next = pc + uint32(in.Imm)
			}

		case isa.OpJal:
			c.setR(in.Rd, pc+4)
			next = pc + uint32(in.Imm)
		case isa.OpJalr:
			t := (a + uint32(in.Imm)) &^ 3
			c.setR(in.Rd, pc+4)
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
			next = pc

		default:
			var w uint32
			if w, err = m.ReadWord(pc); err == nil {
				err = fmt.Errorf("cpu: invalid instruction %#08x at pc=%#x", w, pc)
			}
			break loop
		}

		c.Counters.count(class, next != pc+4)
		pc = next
		c.Instret++
		done++
	}
	c.PC = pc
	return ev, done, err
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

// restart puts a halted CPU back at the entry point. Next and Skip call
// it before executing, so a program halted by the last cycle of a call
// restarts on the first cycle of the next.
func (ts *TraceSource) restart() {
	if ts.CPU.Halted {
		ts.CPU.Halted = false
		ts.CPU.PC = ts.entry
		ts.Restarts++
	}
}

// Next implements trace.Source.
func (ts *TraceSource) Next() (trace.Cycle, bool) {
	if ts.err != nil {
		return trace.Cycle{}, false
	}
	ts.restart()
	ev, _, err := ts.CPU.run(1)
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

// Skip discards the next n cycles, leaving the source exactly as n calls
// of Next would, without building their cycles; trace.Skip uses it. It
// stops early at an error, which Err then returns.
//
//nanolint:hotpath the warm-up skip of every capture; allocates nothing once a page's decode array exists
func (ts *TraceSource) Skip(n uint64) {
	for n > 0 && ts.err == nil {
		ts.restart()
		_, done, err := ts.CPU.run(n)
		n -= done
		ts.err = err
	}
}

// Err returns the error that terminated the stream, if any.
func (ts *TraceSource) Err() error { return ts.err }
