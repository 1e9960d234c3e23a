package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSliceSource(t *testing.T) {
	cycles := []Cycle{
		{IValid: true, IAddr: 4},
		{IValid: true, IAddr: 8, DValid: true, DAddr: 100, DStore: true},
	}
	src := NewSliceSource(cycles)
	for i, want := range cycles {
		got, ok := src.Next()
		if !ok || got != want {
			t.Fatalf("cycle %d = %+v ok=%v, want %+v", i, got, ok, want)
		}
	}
	if _, ok := src.Next(); ok {
		t.Error("source did not end")
	}
	src.Reset()
	if c, ok := src.Next(); !ok || c != cycles[0] {
		t.Error("Reset did not rewind")
	}
}

func TestSkip(t *testing.T) {
	cycles := make([]Cycle, 5)
	for i := range cycles {
		cycles[i] = Cycle{IValid: true, IAddr: uint32(i * 4)}
	}
	src := Skip(NewSliceSource(cycles), 3)
	c, ok := src.Next()
	if !ok || c.IAddr != 12 {
		t.Errorf("after Skip(3): %+v ok=%v, want IAddr=12", c, ok)
	}
	// Skipping past the end leaves an exhausted source.
	src2 := Skip(NewSliceSource(cycles[:2]), 10)
	if _, ok := src2.Next(); ok {
		t.Error("over-skipped source not exhausted")
	}
}

func TestIdleInjector(t *testing.T) {
	base := make([]Cycle, 6)
	for i := range base {
		base[i] = Cycle{IValid: true, IAddr: uint32(100 + 4*i)}
	}
	inj, err := NewIdleInjector(NewSliceSource(base), []IdleWindow{{Start: 2, Length: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var got []Cycle
	for {
		c, ok := inj.Next()
		if !ok {
			break
		}
		got = append(got, c)
	}
	if len(got) != 9 {
		t.Fatalf("got %d cycles, want 9 (6 + 3 idle)", len(got))
	}
	for i := 2; i < 5; i++ {
		if got[i].IValid || got[i].DValid {
			t.Errorf("cycle %d not idle: %+v", i, got[i])
		}
	}
	// Underlying traffic resumes unchanged after the window.
	if got[5].IAddr != 108 {
		t.Errorf("cycle 5 IAddr = %d, want 108 (paused, not dropped)", got[5].IAddr)
	}
}

func TestIdleInjectorValidation(t *testing.T) {
	src := NewSliceSource(nil)
	if _, err := NewIdleInjector(src, []IdleWindow{{Start: 0, Length: 0}}); err == nil {
		t.Error("zero-length window accepted")
	}
	if _, err := NewIdleInjector(src, []IdleWindow{{Start: 10, Length: 5}, {Start: 12, Length: 1}}); err == nil {
		t.Error("overlapping windows accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cycles := make([]Cycle, int(n)+1)
		for i := range cycles {
			cycles[i] = Cycle{
				IValid: rng.Intn(10) > 0,
				IAddr:  rng.Uint32(),
				DValid: rng.Intn(2) == 0,
				DAddr:  rng.Uint32(),
				DStore: rng.Intn(2) == 0,
			}
			if !cycles[i].IValid {
				cycles[i].IAddr = 0
			}
			if !cycles[i].DValid {
				cycles[i].DAddr = 0
				cycles[i].DStore = false
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, c := range cycles {
			if err := w.Write(c); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		if w.Cycles() != uint64(len(cycles)) {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range cycles {
			got, ok := r.Next()
			if !ok || got != want {
				return false
			}
		}
		if _, ok := r.Next(); ok {
			return false
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX....."))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestSynthFetchMostlySequential(t *testing.T) {
	src := NewSynth(DefaultSynthConfig(42))
	seq, total := 0, 0
	prev, _ := src.Next()
	for i := 0; i < 20000; i++ {
		c, _ := src.Next()
		if c.IAddr == prev.IAddr+4 {
			seq++
		}
		total++
		prev = c
	}
	frac := float64(seq) / float64(total)
	if frac < 0.7 {
		t.Errorf("sequential-fetch fraction = %.3f, want > 0.7", frac)
	}
}

func TestSynthDataDuty(t *testing.T) {
	cfg := DefaultSynthConfig(7)
	cfg.MemProb = 0.4
	src := NewSynth(cfg)
	_, da, cycles := CollectStats(src, 50000)
	if cycles != 50000 {
		t.Fatalf("cycles = %d", cycles)
	}
	duty := da.DutyFactor()
	if duty < 0.35 || duty > 0.45 {
		t.Errorf("DA duty factor = %.3f, want ~0.40", duty)
	}
}

func TestStreamStats(t *testing.T) {
	var s StreamStats
	s.Observe(0b0000, true)
	s.Observe(0b0011, true) // h=2
	s.Observe(0, false)     // idle
	s.Observe(0b0111, true) // h=1 vs 0b0011
	if s.Cycles != 4 || s.Driven != 3 {
		t.Errorf("cycles=%d driven=%d", s.Cycles, s.Driven)
	}
	if s.Transitions != 3 {
		t.Errorf("transitions = %d, want 3", s.Transitions)
	}
	if s.HammingHist[2] != 1 || s.HammingHist[1] != 1 {
		t.Errorf("hist wrong: %v", s.HammingHist[:4])
	}
	if mh := s.MeanHamming(); mh != 1.5 {
		t.Errorf("MeanHamming = %g, want 1.5", mh)
	}
	if d := s.DutyFactor(); d != 0.75 {
		t.Errorf("DutyFactor = %g, want 0.75", d)
	}
}

func TestFracAboveHalf(t *testing.T) {
	var s StreamStats
	s.Observe(0, true)
	s.Observe(0xFFFFFFFF, true) // h=32 > 16
	s.Observe(0xFFFFFFFE, true) // h=1
	if f := s.FracAboveHalf(); f != 0.5 {
		t.Errorf("FracAboveHalf = %g, want 0.5", f)
	}
	var empty StreamStats
	if empty.FracAboveHalf() != 0 || empty.MeanHamming() != 0 || empty.DutyFactor() != 0 {
		t.Error("empty stats not zero")
	}
}

// The paper's key observation about address streams: consecutive fetch
// addresses have very low Hamming distance, so BI-style schemes rarely
// trigger. Verify the synthetic streams reproduce it.
func TestSynthLowFetchHamming(t *testing.T) {
	ia, _, _ := CollectStats(NewSynth(DefaultSynthConfig(3)), 100000)
	if mh := ia.MeanHamming(); mh > 6 {
		t.Errorf("IA mean Hamming = %.2f, want low (< 6)", mh)
	}
	if f := ia.FracAboveHalf(); f > 0.01 {
		t.Errorf("IA frac above half = %.4f, want ~0", f)
	}
}
