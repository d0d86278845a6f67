package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func drainGate(t *testing.T, a *Admission) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// fillGate starts n calls that block until release is closed and waits
// until all of them are inside a (running or waiting); their errors
// arrive on the returned channel.
func fillGate(t *testing.T, a *Admission, n int, release <-chan struct{}) chan error {
	t.Helper()
	errs := make(chan error, n+1)
	for i := 0; i < n; i++ {
		go func() { errs <- a.Run(func() { <-release }) }()
	}
	waitFor(t, func() bool { return a.InFlight()+a.Depth() == n }, "calls to enter the gate")
	return errs
}

func TestAdmissionStateMachine(t *testing.T) {
	a := NewAdmission(2, 4)
	ran := false
	if err := a.Run(func() { ran = true }); err != nil || !ran {
		t.Fatalf("run while accepting: err %v, ran %v", err, ran)
	}
	drainGate(t, a)
	if !a.IsDraining() {
		t.Fatal("drained gate does not report draining")
	}
	if err := a.Run(func() { t.Error("a call ran after drain") }); err != ErrDraining {
		t.Fatalf("run after drain: %v, want ErrDraining", err)
	}
	if err := a.Drain(context.Background()); err == nil {
		t.Fatal("second drain did not error")
	}
}

// TestAdmissionQueueFull pins exact capacity: workers running calls
// plus queueDepth waiting ones are admitted, and every call past that
// is refused at once, on its own goroutine, without running.
func TestAdmissionQueueFull(t *testing.T) {
	const workers, queueDepth = 2, 3
	a := NewAdmission(workers, queueDepth)
	release := make(chan struct{})
	errs := fillGate(t, a, workers+queueDepth, release)
	if a.InFlight() != workers || a.Depth() != queueDepth {
		t.Fatalf("in flight %d, waiting %d; want %d and %d", a.InFlight(), a.Depth(), workers, queueDepth)
	}

	before := numGoroutines()
	for i := 0; i < 20; i++ {
		if err := a.Run(func() { t.Error("a call ran past capacity") }); err != ErrQueueFull {
			t.Fatalf("call %d past capacity: %v, want ErrQueueFull", i, err)
		}
	}
	if after := numGoroutines(); after > before {
		t.Fatalf("refusals grew goroutines %d → %d", before, after)
	}

	close(release)
	for i := 0; i < workers+queueDepth; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted call: %v", err)
		}
	}
	drainGate(t, a)
}

// TestAdmissionDepthCountsWaiting: Depth is the number of calls waiting
// for a slot, as they arrive and as slots free up one at a time.
func TestAdmissionDepthCountsWaiting(t *testing.T) {
	a := NewAdmission(1, 8)
	release := make(chan struct{}) // each receive lets one running call return
	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		go func() { errs <- a.Run(func() { <-release }) }()
		waitFor(t, func() bool { return a.InFlight() == 1 && a.Depth() == i }, "the next call to wait")
	}
	for waiting := 4; waiting >= 0; waiting-- {
		release <- struct{}{}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return a.InFlight() == 1 && a.Depth() == waiting }, "a waiting call to take the slot")
	}
	release <- struct{}{}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if a.InFlight() != 0 || a.Depth() != 0 {
		t.Fatalf("idle gate: in flight %d, waiting %d", a.InFlight(), a.Depth())
	}
	drainGate(t, a)
}

// TestAdmissionPanic: a panicking call comes back as a *PanicError with
// the value and the stack, and its slot is free again.
func TestAdmissionPanic(t *testing.T) {
	a := NewAdmission(1, 0)
	err := a.Run(func() { panic("boom") })
	var p *PanicError
	if !errors.As(err, &p) {
		t.Fatalf("run of a panicking call: %v, want a *PanicError", err)
	}
	if p.Value != "boom" || !strings.Contains(string(p.Stack), "TestAdmissionPanic") {
		t.Fatalf("panic value %v, stack:\n%s", p.Value, p.Stack)
	}
	// One slot and no queue: a slot the panic leaked would refuse this.
	if err := a.Run(func() {}); err != nil {
		t.Fatalf("run after a panic: %v", err)
	}
	drainGate(t, a)
}

// TestAdmissionDrainWaitsForWaitingCall: a call admitted before Drain
// but still waiting for a slot runs, and Drain returns only after it.
func TestAdmissionDrainWaitsForWaitingCall(t *testing.T) {
	a := NewAdmission(1, 1)
	release := make(chan struct{})
	errs := fillGate(t, a, 1, release)
	var waiterRan atomic.Bool
	go func() { errs <- a.Run(func() { waiterRan.Store(true) }) }()
	waitFor(t, func() bool { return a.Depth() == 1 }, "the second call to wait")

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- a.Drain(ctx)
	}()
	waitFor(t, a.IsDraining, "the gate to drain")
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v while a call was waiting", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !waiterRan.Load() {
		t.Fatal("drain returned before the waiting call ran")
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted call: %v", err)
		}
	}
}

// TestAdmissionStartsNoGoroutine: the gate is two channels and a mutex;
// its calls run on their callers' goroutines.
func TestAdmissionStartsNoGoroutine(t *testing.T) {
	before := numGoroutines()
	a := NewAdmission(1000, 0)
	if err := a.Run(func() {}); err != nil {
		t.Fatal(err)
	}
	if after := numGoroutines(); after > before {
		t.Fatalf("NewAdmission(1000, 0) and one call grew goroutines %d → %d", before, after)
	}
}

// TestAdmissionSubmitCompleteRace hammers the gate with trivially fast
// calls from more goroutines than it admits: each call runs or is
// refused with ErrQueueFull, a refusal leaves the counts balanced, and
// the final drain does not hang.
func TestAdmissionSubmitCompleteRace(t *testing.T) {
	a := NewAdmission(4, 2)
	var ran, refused atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch err := a.Run(func() { ran.Add(1) }); err {
				case nil:
				case ErrQueueFull:
					refused.Add(1)
				default:
					t.Errorf("run: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if got := ran.Load() + refused.Load(); got != 8*500 {
		t.Fatalf("%d calls ran and %d were refused, of %d", ran.Load(), refused.Load(), 8*500)
	}
	if a.InFlight() != 0 || a.Depth() != 0 {
		t.Fatalf("idle gate: in flight %d, waiting %d", a.InFlight(), a.Depth())
	}
	drainGate(t, a)
}
