package cpu_test

import (
	"fmt"
	"math"
	"testing"

	"nanobus/internal/cpu"
	"nanobus/internal/isa"
	"nanobus/internal/trace"
	"nanobus/internal/workload"
)

// sourceState is everything a skip can leave behind in a trace source.
// FP registers are compared by their bits, so a NaN equals itself.
type sourceState struct {
	Regs     [isa.NumRegs]uint32
	FRegs    [isa.NumRegs]uint32
	PC       uint32
	Halted   bool
	Instret  uint64
	Counters cpu.Counters
	Restarts int
	Err      string
	Pages    int
}

func stateOf(ts *cpu.TraceSource) sourceState {
	s := sourceState{
		Regs:     ts.CPU.Regs,
		PC:       ts.CPU.PC,
		Halted:   ts.CPU.Halted,
		Instret:  ts.CPU.Instret,
		Counters: ts.CPU.Counters,
		Restarts: ts.Restarts,
		Pages:    ts.CPU.Mem.PageCount(),
	}
	for i, f := range ts.CPU.FRegs {
		s.FRegs[i] = math.Float32bits(f)
	}
	if err := ts.Err(); err != nil {
		s.Err = err.Error()
	}
	return s
}

// checkSkip skips n cycles of one fresh source through trace.Skip and of
// another through a per-cycle Next loop, and requires both to end in the
// same state and then yield the same cycles.
func checkSkip(t *testing.T, fresh func() *cpu.TraceSource, n uint64) sourceState {
	t.Helper()
	skipped, stepped := fresh(), fresh()
	trace.Skip(skipped, n)
	for i := uint64(0); i < n; i++ {
		if _, ok := stepped.Next(); !ok {
			break
		}
	}
	got, want := stateOf(skipped), stateOf(stepped)
	if got != want {
		t.Fatalf("after skipping %d cycles:\n trace.Skip %+v\n Next loop  %+v", n, got, want)
	}
	for i := 0; i < 1000; i++ {
		a, okA := skipped.Next()
		b, okB := stepped.Next()
		if a != b || okA != okB {
			t.Fatalf("cycle %d after the skip: trace.Skip source gave %+v, %v; Next loop source %+v, %v", i, a, okA, b, okB)
		}
	}
	return want
}

// programSource loads an assembled program into a fresh trace source.
func programSource(t *testing.T, src string) func() *cpu.TraceSource {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return func() *cpu.TraceSource { return cpu.NewTraceSource(cpu.LoadProgram(p), p.Entry) }
}

// TestSkipMatchesNext pins trace.Skip over a CPU trace source to the
// per-cycle Next loop it stands for: the same registers, PC, counters,
// restarts, error and page footprint, on every benchmark's warm-up, on a
// program that halts and restarts inside the skip, and on one that hits
// an invalid instruction mid-skip.
func TestSkipMatchesNext(t *testing.T) {
	for _, b := range workload.AllWithExtras() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			checkSkip(t, func() *cpu.TraceSource {
				src, err := b.NewSource()
				if err != nil {
					t.Fatal(err)
				}
				return src
			}, b.WarmupCycles)
		})
	}

	t.Run("halt", func(t *testing.T) {
		fresh := programSource(t, `
		.org 0x1000
		addi r1, r1, 1
		addi r2, r2, 2
		halt
	`)
		// Three cycles per pass: the skip ends after an addi, on the
		// halt itself and just after a restart.
		for n := uint64(7); n <= 10; n++ {
			t.Run(fmt.Sprint(n), func(t *testing.T) {
				s := checkSkip(t, fresh, n)
				if s.Restarts < 2 {
					t.Errorf("restarts = %d, want >= 2 in %d cycles of a 3-instruction program", s.Restarts, n)
				}
			})
		}
	})

	t.Run("invalid", func(t *testing.T) {
		s := checkSkip(t, programSource(t, `
		.org 0x1000
		addi r1, r1, 1
		addi r2, r2, 2
		addi r3, r3, 3
		.word 0xFFFFFFFF
		addi r4, r4, 4
	`), 10)
		if s.Err == "" || s.Instret != 3 {
			t.Errorf("state %+v, want an error after 3 committed instructions", s)
		}
	})
}
