package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// Admission control: a fixed worker pool behind a bounded queue.
//
// The state machine has three states:
//
//	accepting ──Drain──▶ draining ──queue empty & jobs done──▶ stopped
//
// While accepting, Submit either enqueues (queue has room) or fails
// fast with ErrQueueFull — the server load-sheds with 429 instead of
// queueing unboundedly, so memory and tail latency stay bounded no
// matter the offered load. While draining, Submit fails with
// ErrDraining (503): everything already accepted still runs to
// completion, nothing new gets in. Stopped means the queue has been
// closed and every worker has exited.
//
// The type is exported (rather than private to the solve service)
// because the router (internal/router) fronts its forwards with the
// same pool: bounded handler concurrency, load shedding under request
// storms, and a drain barrier for clean shutdown.
var (
	// ErrQueueFull rejects a request because the bounded queue is at
	// capacity; the client should retry after backing off.
	ErrQueueFull = errors.New("server: queue full")
	// ErrDraining rejects a request because the server is shutting
	// down; the client should go elsewhere.
	ErrDraining = errors.New("server: draining")
)

// Job is one unit of admitted work. The worker runs fn exactly once,
// converts a panic into the panicVal/stack fields, and closes done.
type Job struct {
	fn       func()
	done     chan struct{}
	panicked bool
	panicVal string
	stack    []byte
}

// NewJob wraps fn for submission.
func NewJob(fn func()) *Job {
	return &Job{fn: fn, done: make(chan struct{})}
}

// Done is closed once the job has run (or panicked). Until it is
// closed, the panic accessors must not be called.
func (j *Job) Done() <-chan struct{} { return j.done }

// Panicked reports whether the job's function panicked, with the
// recovered value and stack. Only valid after Done is closed.
func (j *Job) Panicked() (panicked bool, val string, stack []byte) {
	return j.panicked, j.panicVal, j.stack
}

// Admission is the worker pool. All state transitions take mu; job
// execution does not.
type Admission struct {
	queue chan *Job

	mu       sync.Mutex
	draining bool

	// accepted tracks admitted-but-unfinished jobs; Drain waits on it.
	accepted sync.WaitGroup
	// workers tracks live worker goroutines.
	workers sync.WaitGroup
}

// NewAdmission builds the pool and starts its workers.
func NewAdmission(workers, queueDepth int) *Admission {
	a := &Admission{queue: make(chan *Job, queueDepth)}
	a.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go a.worker()
	}
	return a
}

// Submit tries to admit j. It never blocks: the outcome is nil
// (admitted), ErrQueueFull, or ErrDraining.
func (a *Admission) Submit(j *Job) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return ErrDraining
	}
	// Add before the send: once j is on the queue a worker may run it
	// and fire accepted.Done() at any moment, and a Done that lands
	// before this Add would drive the counter negative and panic. The
	// Add cannot race Drain's Wait either — Drain flips draining under
	// mu first, and we re-checked it above while holding mu.
	a.accepted.Add(1)
	select {
	case a.queue <- j:
		return nil
	default:
		a.accepted.Done()
		return ErrQueueFull
	}
}

// Depth is the current number of queued (not yet running) jobs.
func (a *Admission) Depth() int { return len(a.queue) }

// Drain moves the pool to draining (new submits fail immediately),
// waits for every accepted job to finish — or for ctx to expire — then
// stops the workers. It returns nil on a complete drain and ctx's
// error when the deadline cut it short (workers are then abandoned
// mid-job; the process is exiting anyway).
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
		a.accepted.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		return ctx.Err()
	}
	// No accepted jobs remain and Submit refuses new ones, so the
	// queue is empty and closing it cannot race a send (Submit holds
	// mu and re-checks draining first).
	close(a.queue)
	a.workers.Wait()
	return nil
}

// IsDraining reports whether Drain has been called.
func (a *Admission) IsDraining() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.draining
}

// worker runs queued jobs until the queue is closed.
func (a *Admission) worker() {
	defer a.workers.Done()
	for j := range a.queue {
		a.runJob(j)
	}
}

// runJob executes one job with panic isolation: a panicking handler
// takes down this request, never the process or its pool neighbours.
func (a *Admission) runJob(j *Job) {
	defer a.accepted.Done()
	defer close(j.done)
	defer func() {
		if r := recover(); r != nil {
			j.panicked = true
			j.panicVal = fmt.Sprint(r)
			j.stack = debug.Stack()
		}
	}()
	j.fn()
}
