package isa

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateProgram = flag.Bool("update-program", false, "rewrite testdata/program.nbx from pinnedProgram")

// pinnedProgram has two segments, one of them empty.
var pinnedProgram = Program{
	Entry: 0x1000,
	Segments: []Segment{
		{Addr: 0x1000, Data: []byte{0x13, 0x00, 0x50, 0x00, 0xff, 0xff, 0xff, 0xfc}},
		{Addr: 0x2000},
		{Addr: 0xdeadbeec, Data: []byte{1, 2, 3}},
	},
}

// TestProgramPinned pins the NBX1 layout's bytes: the program writes the
// committed file, and the file reads back to a program that writes the
// same bytes again.
func TestProgramPinned(t *testing.T) {
	var got bytes.Buffer
	if err := WriteProgram(&got, &pinnedProgram); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "program.nbx")
	if *updateProgram {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("program writes\n%x\nwant\n%x", got.Bytes(), want)
	}
	p, err := ReadProgram(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteProgram(&again, p); err != nil || !bytes.Equal(again.Bytes(), want) {
		t.Fatalf("read-back program writes %x (%v)", again.Bytes(), err)
	}
}
