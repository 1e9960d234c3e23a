package main

import (
	"testing"
)

func TestParseNodes(t *testing.T) {
	all, err := parseNodes("all")
	if err != nil || len(all) != 4 {
		t.Fatalf("parseNodes(all) = %d nodes, %v", len(all), err)
	}
	empty, err := parseNodes("")
	if err != nil || len(empty) != 4 {
		t.Fatalf("parseNodes('') = %d nodes, %v", len(empty), err)
	}
	two, err := parseNodes("130nm, 45nm")
	if err != nil || len(two) != 2 || two[1].Name != "45nm" {
		t.Fatalf("parseNodes pair = %+v, %v", two, err)
	}
	if _, err := parseNodes("22nm"); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestCmdTable1(t *testing.T) {
	if err := cmdTable1([]string{"-nodes", "130nm"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTable1([]string{"-nodes", "bogus"}); err == nil {
		t.Error("bogus node accepted")
	}
}

func TestCmdSec33(t *testing.T) {
	if err := cmdSec33([]string{"-wires", "8", "-nodes", "130nm"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSec33([]string{"-wires", "2"}); err == nil {
		t.Error("2-wire accepted")
	}
}

func TestCmdDTheta(t *testing.T) {
	if err := cmdDTheta(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmdSteady(t *testing.T) {
	if err := cmdSteady([]string{"-node", "90nm", "-wires", "4", "-power", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSteady([]string{"-node", "bogus"}); err == nil {
		t.Error("bogus node accepted")
	}
	for _, power := range []string{"NaN", "-5"} {
		if err := cmdSteady([]string{"-power", power}); err == nil {
			t.Errorf("power %s accepted", power)
		}
	}
}

func TestCmdDelayTemp(t *testing.T) {
	if err := cmdDelayTemp(nil); err != nil {
		t.Fatal(err)
	}
	if err := cmdDelayTemp([]string{"-temp", "350"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdReliability(t *testing.T) {
	if err := cmdReliability([]string{"-wires", "8", "-hot-wire", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdReliability([]string{"-node", "bogus"}); err == nil {
		t.Error("bogus node accepted")
	}
}

func TestCmdFig1B(t *testing.T) {
	if testing.Short() {
		t.Skip("BEM extraction")
	}
	if err := cmdFig1B([]string{"-wires", "7", "-panels", "3", "-nodes", "130nm"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdStats(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	if err := cmdStats([]string{"-bench", "crafty", "-cycles", "50000"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats([]string{"-bench", "gcc"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestCmdFig3Small(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven")
	}
	err := cmdFig3([]string{
		"-cycles", "60000", "-benchmarks", "crafty", "-nodes", "130nm", "-schemes", "BI,Unencoded",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdFig3([]string{"-nodes", "bogus"}); err == nil {
		t.Error("bogus node accepted")
	}
}

func TestCmdFig4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven")
	}
	err := cmdFig4([]string{"-cycles", "200000", "-interval", "50000", "-benchmarks", "eon"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdFig4([]string{"-node", "bogus"}); err == nil {
		t.Error("bogus node accepted")
	}
}

func TestCmdFig5Small(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven")
	}
	err := cmdFig5([]string{
		"-cycles", "1000000", "-idle-start", "500000", "-idle-length", "200000",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdFig5([]string{"-node", "bogus"}); err == nil {
		t.Error("bogus node accepted")
	}
}

func TestCmdL2BusSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven")
	}
	if err := cmdL2Bus([]string{"-cycles", "200000", "-bench", "crafty"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdL2Bus([]string{"-node", "bogus"}); err == nil {
		t.Error("bogus node accepted")
	}
}

func TestCmdBaselinesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven")
	}
	if err := cmdBaselines([]string{"-cycles", "500000", "-bench", "crafty"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBaselines([]string{"-node", "bogus"}); err == nil {
		t.Error("bogus node accepted")
	}
}

func TestCmdSubstrateSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven")
	}
	err := cmdSubstrate([]string{
		"-cycles", "1500000", "-period", "400000", "-bench", "crafty",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdSubstrate([]string{"-node", "bogus"}); err == nil {
		t.Error("bogus node accepted")
	}
}
