package isa

import (
	"bytes"
	"strings"
	"testing"
)

func TestProgramRoundTrip(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x1000
	start:
		addi r1, r0, 5
		halt
		.org 0x2000
	data:
		.word 1, 2, 3
	`)
	var buf bytes.Buffer
	if err := WriteProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != p.Entry {
		t.Errorf("entry %#x, want %#x", got.Entry, p.Entry)
	}
	if len(got.Segments) != len(p.Segments) {
		t.Fatalf("%d segments, want %d", len(got.Segments), len(p.Segments))
	}
	for i := range p.Segments {
		if got.Segments[i].Addr != p.Segments[i].Addr {
			t.Errorf("segment %d addr %#x, want %#x", i, got.Segments[i].Addr, p.Segments[i].Addr)
		}
		if !bytes.Equal(got.Segments[i].Data, p.Segments[i].Data) {
			t.Errorf("segment %d data mismatch", i)
		}
	}
}

func TestReadProgramErrors(t *testing.T) {
	if _, err := ReadProgram(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadProgram(strings.NewReader("XXXX12345678")); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated segment body.
	var buf bytes.Buffer
	p := mustAssemble(t, "halt")
	if err := WriteProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadProgram(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated program accepted")
	}
	if _, err := ReadProgram(bytes.NewReader(append(buf.Bytes(), 0))); err == nil {
		t.Error("trailing byte accepted")
	}
	// Implausible segment count.
	bad := append([]byte{'N', 'B', 'X', '1'}, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := ReadProgram(bytes.NewReader(bad)); err == nil {
		t.Error("implausible segment count accepted")
	}
}

func TestDisassemble(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x400
		addi r1, r0, 7
		lw r2, 4(r1)
		halt
	`)
	var buf bytes.Buffer
	if err := Disassemble(&buf, p.Segments[0]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"00000400:", "addi r1, r0, 7", "lw r2, 4(r1)", "halt"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q in:\n%s", want, out)
		}
	}
	// Invalid words render as .word directives.
	var buf2 bytes.Buffer
	if err := Disassemble(&buf2, Segment{Addr: 0, Data: []byte{0xFF, 0xFF, 0xFF, 0xFF}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), ".word") {
		t.Errorf("invalid word not rendered as .word: %s", buf2.String())
	}
}
