package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestHitDisarmedIsNil(t *testing.T) {
	Reset()
	if err := Hit("nowhere"); err != nil {
		t.Fatalf("disarmed Hit = %v", err)
	}
	if Active() {
		t.Fatal("Active with nothing armed")
	}
}

func TestErrorAction(t *testing.T) {
	defer Reset()
	if err := Set("a", "error"); err != nil {
		t.Fatal(err)
	}
	if !Active() {
		t.Fatal("not Active after Set")
	}
	if err := Hit("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Hit = %v, want ErrInjected", err)
	}
	if err := Hit("b"); err != nil {
		t.Fatalf("unarmed name injected: %v", err)
	}
	Clear("a")
	if err := Hit("a"); err != nil {
		t.Fatalf("cleared failpoint still injects: %v", err)
	}
}

func TestNthAndAfterTriggers(t *testing.T) {
	defer Reset()
	if err := Set("nth", "error,nth=3"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := Hit("nth")
		if (i == 3) != (err != nil) {
			t.Fatalf("nth=3: hit %d -> %v", i, err)
		}
	}
	if Hits("nth") != 5 {
		t.Fatalf("Hits = %d, want 5", Hits("nth"))
	}
	if err := Set("after", "error,after=2"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		err := Hit("after")
		if (i > 2) != (err != nil) {
			t.Fatalf("after=2: hit %d -> %v", i, err)
		}
	}
}

func TestSleepAction(t *testing.T) {
	defer Reset()
	if err := Set("slow", "sleep=30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Hit("slow"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("sleep failpoint returned after %v", d)
	}
}

func TestTruncateAction(t *testing.T) {
	defer Reset()
	if err := Set("trunc", "truncate=4,nth=2"); err != nil {
		t.Fatal(err)
	}
	b := []byte("12345678")
	if got := Truncate("trunc", b); len(got) != 8 {
		t.Fatalf("first hit truncated to %d bytes", len(got))
	}
	if got := Truncate("trunc", b); len(got) != 4 {
		t.Fatalf("second hit kept %d bytes, want 4", len(got))
	}
	// Hit on a truncate action is inert.
	if err := Set("trunc2", "truncate=1"); err != nil {
		t.Fatal(err)
	}
	if err := Hit("trunc2"); err != nil {
		t.Fatalf("Hit on truncate action = %v", err)
	}
}

func TestProbDeterministic(t *testing.T) {
	defer Reset()
	if err := Set("p", "error,prob=0.5"); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 1000; i++ {
		if Hit("p") != nil {
			fired++
		}
	}
	if fired < 400 || fired > 600 {
		t.Fatalf("prob=0.5 fired %d/1000", fired)
	}
}

func TestSetAllAndSpecErrors(t *testing.T) {
	defer Reset()
	if err := SetAll("x=error,nth=1; y=sleep=5ms"); err != nil {
		t.Fatal(err)
	}
	if !Active() {
		t.Fatal("SetAll armed nothing")
	}
	for _, bad := range []string{
		"frob", "sleep=notaduration", "truncate=-1", "error,nth=0",
		"error,prob=2", "error,bogus=1", "error,nth",
	} {
		if err := Set("bad", bad); err == nil {
			t.Errorf("Set(%q) accepted a malformed spec", bad)
		}
	}
	if err := SetAll("no-equals-here"); err == nil {
		t.Error("SetAll accepted an entry without name=spec")
	}
}

func TestPanicAction(t *testing.T) {
	defer Reset()
	if err := Set("boom", "panic"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("panic action did not panic")
		}
	}()
	_ = Hit("boom")
}
