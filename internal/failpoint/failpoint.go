// Package failpoint makes fault injection a first-class testing tool:
// code under test calls Hit at the places where the real world can go
// wrong (a write that tears, a network call that times out, a worker
// that dies), and tests — or an operator via the environment — arm
// those named points with an action. Disarmed points cost one atomic
// load, so production call sites stay effectively free.
//
// Actions:
//
//	error      Hit returns an error wrapping ErrInjected
//	panic      Hit panics
//	delay(D)   Hit sleeps for the Go duration D, then returns nil
//
// An action may carry a hit budget: "error*2" fires on the first two
// Hit calls, then the point disarms itself — the shape of a transient
// failure that a retry loop should survive.
//
// Points are armed programmatically (Enable, EnableSpec) or from the
// PBQPFAIL environment variable at process start, so chaos tests can
// inject faults into child processes they cannot reach with a function
// call:
//
//	PBQPFAIL='checkpoint/torn-write=error' ./pbqp-train ...
//	PBQPFAIL='server/solve=delay(300ms)' ./pbqp-serve ...
//
// Spec grammar: name=action pairs separated by ';' (or ','). Names are
// slash-separated paths by convention, e.g. "checkpoint/torn-write".
package failpoint

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every error returned by an error-action
// failpoint; test assertions use errors.Is against it.
var ErrInjected = errors.New("failpoint: injected failure")

type action int

const (
	actError action = iota
	actPanic
	actDelay
)

type point struct {
	act   action
	delay time.Duration
	// remaining is the hit budget; < 0 means unlimited.
	remaining int
}

var (
	// armed counts enabled points; Hit's fast path is a single load of
	// it, so call sites in disarmed processes pay no lock.
	armed atomic.Int32

	mu     sync.Mutex
	points = map[string]*point{}
	hits   = map[string]int{}
)

func init() {
	if spec := os.Getenv("PBQPFAIL"); spec != "" {
		if err := EnableSpec(spec); err != nil {
			// Arming happens before any work is at risk; a malformed
			// spec means the chaos run would silently test nothing, so
			// fail the process loudly.
			panic("failpoint: $PBQPFAIL: " + err.Error())
		}
	}
}

// Enable arms the named point with an action ("error", "panic",
// "delay(D)", optionally suffixed "*N" for a hit budget). Re-enabling
// replaces the previous action and budget.
func Enable(name, spec string) error {
	p, err := parseAction(spec)
	if err != nil {
		return fmt.Errorf("failpoint %s: %w", name, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = p
	return nil
}

// Disable disarms the named point; disarming an unarmed point is a
// no-op.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
}

// DisableAll disarms every point and clears the hit counts; tests call
// it in cleanup so armed points never leak across test cases.
func DisableAll() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(points)))
	points = map[string]*point{}
	hits = map[string]int{}
}

// EnableSpec arms every name=action pair in spec (the PBQPFAIL
// grammar).
func EnableSpec(spec string) error {
	for _, part := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, act, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return fmt.Errorf("failpoint: %q is not name=action", part)
		}
		if err := Enable(strings.TrimSpace(name), strings.TrimSpace(act)); err != nil {
			return err
		}
	}
	return nil
}

// Hits returns how many times the named point has fired since the last
// DisableAll; tests use it to assert an injection actually happened.
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	return hits[name]
}

// Hit fires the named point if it is armed: an error action returns a
// non-nil error, a panic action panics, a delay action sleeps and
// returns nil. Disarmed (the overwhelmingly common case) it returns
// nil after one atomic load.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	hits[name]++
	if p.remaining > 0 {
		p.remaining--
		if p.remaining == 0 {
			delete(points, name)
			armed.Add(-1)
		}
	}
	act, delay := p.act, p.delay
	mu.Unlock()
	switch act {
	case actPanic:
		panic("failpoint: injected panic at " + name)
	case actDelay:
		time.Sleep(delay)
	}
	if act == actError {
		return fmt.Errorf("%w at %s", ErrInjected, name)
	}
	return nil
}

// parseAction parses "error", "panic", "delay(D)", each optionally
// suffixed with "*N".
func parseAction(spec string) (*point, error) {
	p := &point{remaining: -1}
	if base, budget, ok := strings.Cut(spec, "*"); ok {
		n, err := strconv.Atoi(budget)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad hit budget %q (want a positive integer)", budget)
		}
		p.remaining = n
		spec = base
	}
	switch {
	case spec == "error":
		p.act = actError
	case spec == "panic":
		p.act = actPanic
	case strings.HasPrefix(spec, "delay(") && strings.HasSuffix(spec, ")"):
		d, err := time.ParseDuration(spec[len("delay(") : len(spec)-1])
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad delay %q (want delay(50ms))", spec)
		}
		p.act, p.delay = actDelay, d
	default:
		return nil, fmt.Errorf("unknown action %q (want error, panic, or delay(D), optionally *N)", spec)
	}
	return p, nil
}
