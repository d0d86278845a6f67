package failpoint

import (
	"errors"
	"testing"
	"time"
)

func TestDisarmedIsNoOp(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Hit("never/armed"); err != nil {
		t.Fatalf("disarmed Hit returned %v", err)
	}
	if Active("never/armed") {
		t.Fatal("unarmed point reports active")
	}
}

func TestErrorAction(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable("a/b", "error"); err != nil {
		t.Fatal(err)
	}
	err := Hit("a/b")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Hit = %v, want ErrInjected", err)
	}
	if got := Hits("a/b"); got != 1 {
		t.Fatalf("Hits = %d, want 1", got)
	}
	Disable("a/b")
	if err := Hit("a/b"); err != nil {
		t.Fatalf("Hit after Disable = %v", err)
	}
}

func TestPanicAction(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable("boom", "panic"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("panic action did not panic")
		}
	}()
	Hit("boom")
}

func TestDelayAction(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable("slow", "delay(30ms)"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Hit("slow"); err != nil {
		t.Fatalf("delay Hit = %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay Hit returned after %v, want >= 30ms", d)
	}
}

func TestHitBudgetDisarmsItself(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable("flaky", "error*2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := Hit("flaky"); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d = %v, want ErrInjected", i, err)
		}
	}
	if err := Hit("flaky"); err != nil {
		t.Fatalf("hit past budget = %v, want nil", err)
	}
	if Active("flaky") {
		t.Fatal("exhausted point still armed")
	}
	if got := Hits("flaky"); got != 2 {
		t.Fatalf("Hits = %d, want 2", got)
	}
}

func TestEnableSpec(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := EnableSpec("a=error; b=delay(1ms),c=panic*1"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if !Active(name) {
			t.Fatalf("point %q not armed by spec", name)
		}
	}
}

func TestBadSpecs(t *testing.T) {
	t.Cleanup(DisableAll)
	for _, spec := range []string{"a", "a=", "a=explode", "a=delay(ms)", "a=error*0", "a=error*x"} {
		if err := EnableSpec(spec); err == nil {
			t.Errorf("EnableSpec(%q) accepted", spec)
		}
	}
}

func TestReenableReplacesBudget(t *testing.T) {
	t.Cleanup(DisableAll)
	if err := Enable("p", "error*1"); err != nil {
		t.Fatal(err)
	}
	if err := Enable("p", "delay(0s)"); err != nil {
		t.Fatal(err)
	}
	if err := Hit("p"); err != nil {
		t.Fatalf("replaced action Hit = %v, want nil (delay)", err)
	}
	if !Active("p") {
		t.Fatal("unlimited-budget point disarmed itself")
	}
}

// TestHitHoldsNoLockWhileSleeping: a delay action stalls the caller
// that hit it and no one else. While one Hit sleeps out an armed delay,
// Hit on another point and Hits have to return.
func TestHitHoldsNoLockWhileSleeping(t *testing.T) {
	t.Cleanup(DisableAll)
	// The delay outlasts the 2 s bound below, so a sleeper holding the
	// lock fails the test.
	if err := Enable("slow/point", "delay(3s)"); err != nil {
		t.Fatal(err)
	}
	if err := Enable("other/point", "error"); err != nil {
		t.Fatal(err)
	}
	slept := make(chan struct{})
	go func() {
		defer close(slept)
		Hit("slow/point")
	}()
	defer func() { <-slept }()
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s blocked behind a sleeping delay action", what)
		}
	}
	// Hits counts the sleeper before it sleeps; each poll must return.
	for n := 0; n == 0; {
		within("Hits", func() { n = Hits("slow/point") })
	}
	within("Hit on another point", func() {
		if err := Hit("other/point"); !errors.Is(err, ErrInjected) {
			t.Errorf("Hit = %v, want ErrInjected", err)
		}
	})
	within("Hits", func() { Hits("other/point") })
}

// Active reports whether the named point is currently armed.
func Active(name string) bool {
	if armed.Load() == 0 {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	_, ok := points[name]
	return ok
}
