package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Admission control: a gate that runs each admitted call on its
// caller's goroutine, at most workers at once, with at most queueDepth
// more waiting for a slot.
//
// The state machine has two states:
//
//	accepting ──Drain──▶ draining
//
// While accepting, Run admits fn (running it at once or after a wait
// for a slot) or refuses it straight away with ErrQueueFull — the
// server load-sheds with 429 instead of queueing unboundedly, so memory
// and tail latency stay bounded no matter the offered load. While
// draining, Run refuses with ErrDraining (503): every call already
// admitted, waiting ones included, still runs to completion, nothing new
// gets in, and Drain returns once the last one has.
//
// The type is exported (rather than private to the solve service)
// because the router (internal/router) gates its forwards with it too:
// bounded forwarding concurrency, load shedding under request storms,
// and a drain barrier for clean shutdown.
var (
	// ErrQueueFull rejects a request because the bounded queue is at
	// capacity; the client should retry after backing off.
	ErrQueueFull = errors.New("server: queue full")
	// ErrDraining rejects a request because the server is shutting
	// down; the client should go elsewhere.
	ErrDraining = errors.New("server: draining")
)

// PanicError is a panic Run recovered from its fn: one call dies, never
// its caller's process or the calls beside it.
type PanicError struct {
	Value any    // what fn panicked with
	Stack []byte // the stack of the goroutine fn panicked on
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Admission is the gate. It starts no goroutine: admitted holds a token
// per admitted call and running one per call that holds a slot, so both
// bounds are channel capacities.
type Admission struct {
	admitted chan struct{} // cap workers+queueDepth
	running  chan struct{} // cap workers
	waiting  atomic.Int64  // admitted calls blocked on a slot

	// mu orders admission against Drain's flip: no call is admitted
	// once draining is set, so inside cannot grow under Drain's Wait.
	mu       sync.Mutex
	draining bool
	inside   sync.WaitGroup // admitted calls that have not returned
}

// NewAdmission builds a gate for workers concurrent calls and
// queueDepth waiting ones.
func NewAdmission(workers, queueDepth int) *Admission {
	return &Admission{
		admitted: make(chan struct{}, workers+queueDepth),
		running:  make(chan struct{}, workers),
	}
}

// Run admits fn and runs it on the calling goroutine once a slot is
// free, returning nil, or the *PanicError fn panicked with. It never
// blocks when it refuses: ErrDraining once Drain has started,
// ErrQueueFull when workers calls run and queueDepth more wait.
func (a *Admission) Run(fn func()) error {
	if err := a.admit(); err != nil {
		return err
	}
	defer func() {
		<-a.admitted
		a.inside.Done()
	}()
	select {
	case a.running <- struct{}{}:
	default:
		a.waiting.Add(1)
		a.running <- struct{}{}
		a.waiting.Add(-1)
	}
	defer func() { <-a.running }()
	return isolate(fn)
}

// admit takes an admission token, or says why there is none.
func (a *Admission) admit() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return ErrDraining
	}
	select {
	case a.admitted <- struct{}{}:
		a.inside.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// isolate runs fn, turning a panic into a *PanicError.
func isolate(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// Depth is the number of admitted calls waiting for a slot.
func (a *Admission) Depth() int { return int(a.waiting.Load()) }

// InFlight is the number of calls holding a slot.
func (a *Admission) InFlight() int { return len(a.running) }

// workers is the number of calls that may run at once.
func (a *Admission) workers() int { return cap(a.running) }

// Drain moves the gate to draining (Run refuses at once) and waits for
// every admitted call to return — or for ctx to expire. It returns nil
// on a complete drain and ctx's error when the deadline cut it short
// (the calls still running are abandoned; the process is exiting
// anyway).
func (a *Admission) Drain(ctx context.Context) error {
	a.mu.Lock()
	wasDraining := a.draining
	a.draining = true
	a.mu.Unlock()
	if wasDraining {
		return errors.New("server: drain already in progress")
	}

	finished := make(chan struct{})
	go func() {
		a.inside.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// IsDraining reports whether Drain has been called.
func (a *Admission) IsDraining() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.draining
}
