package router

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"pbqprl/internal/failpoint"
	"pbqprl/internal/par"
)

// Breaker states. The passive circuit breaker per backend follows the
// classic three-state machine:
//
//	closed ──threshold consecutive failures──▶ open
//	open ──cooldown elapses──▶ half-open (one probe request admitted)
//	half-open ──probe succeeds──▶ closed
//	half-open ──probe fails──▶ open (fresh cooldown)
//
// plus an orthogonal readiness bit driven by the active health checker:
// a backend whose /readyz answers 503 (draining) or whose probe cannot
// connect is ejected from selection without burning request-path
// failures, and re-admitted the moment a probe succeeds — no operator
// action in either direction.
const (
	breakerClosed int64 = iota
	breakerHalfOpen
	breakerOpen
)

// backend is one pbqp-serve replica with its health and breaker state.
type backend struct {
	addr  string // base URL, e.g. "http://127.0.0.1:8723"
	label string // metrics label, host:port

	mu          sync.Mutex
	state       int64 // breakerClosed/HalfOpen/Open
	consecFails int
	openedAt    time.Time // when the breaker last tripped
	probing     bool      // a half-open probe request is in flight
	ready       bool      // active-health verdict; starts true so traffic flows before the first probe
	retryAfter  time.Time // honored Retry-After hint; skipped until then
}

func newBackend(addr string) (*backend, error) {
	u, err := url.Parse(addr)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("router: backend %q is not an absolute URL", addr)
	}
	return &backend{addr: addr, label: u.Host, ready: true}, nil
}

// admit decides whether a request may be sent to b now. A half-open
// breaker admits exactly one request at a time as its probe; the probe
// flag tells the caller this request's outcome decides re-closure.
func (b *backend) admit(now time.Time, cooldown time.Duration) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ready || now.Before(b.retryAfter) {
		return false, false
	}
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerHalfOpen:
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	default: // breakerOpen
		if now.Sub(b.openedAt) < cooldown {
			return false, false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, true
	}
}

// success records a request (or active probe) that worked: the breaker
// closes and the failure streak resets.
func (b *backend) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.consecFails = 0
	b.probing = false
	b.ready = true
	b.retryAfter = time.Time{}
}

// failure records a request that failed at the transport level (or
// with a 5xx). It reports whether this failure tripped the breaker
// open (for the trip counter): a half-open probe failure re-opens
// immediately, a closed-state failure opens once the consecutive
// streak reaches threshold.
func (b *backend) failure(now time.Time, threshold int) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	wasOpen := b.state == breakerOpen
	if b.probing || b.state == breakerHalfOpen {
		b.probing = false
		b.state = breakerOpen
		b.openedAt = now
		return true
	}
	if b.consecFails >= threshold {
		b.state = breakerOpen
		b.openedAt = now
		return !wasOpen
	}
	return false
}

// hintRetryAfter honors a backend's 429/503 Retry-After: selection
// skips b until the hinted moment. Not a breaker failure — the backend
// answered coherently, it just asked for space.
func (b *backend) hintRetryAfter(until time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if until.After(b.retryAfter) {
		b.retryAfter = until
	}
}

// setReady flips the active-health readiness bit. Becoming ready also
// clears breaker state: a probe just proved the backend answers, so
// request traffic may flow again.
func (b *backend) setReady(ready bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ready = ready
	if ready {
		b.state = breakerClosed
		b.consecFails = 0
		b.probing = false
	}
}

// snapshot returns the current breaker state and readiness for
// metrics.
func (b *backend) snapshot() (state int64, ready bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.ready
}

// probeOne runs one active health check against b: /readyz with a
// short timeout. 200 re-admits the backend (and resets its breaker),
// 503 marks it draining, a transport error marks it dead. The verdict
// is returned for logging ("" means healthy).
//
// The probe loop runs for the router's whole lifetime, so each probe stays cancellable through ctx.
func (r *Router) probeOne(ctx context.Context, b *backend) string {
	probeCtx, cancel := context.WithTimeout(ctx, r.cfg.HealthTimeout)
	defer cancel()
	verdict := ""
	if err := failpoint.Hit("router/health"); err != nil {
		verdict = err.Error()
	} else if req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, b.addr+"/readyz", nil); err != nil {
		verdict = err.Error()
	} else if resp, err := r.client.Do(req); err != nil {
		verdict = err.Error()
	} else {
		drainBody(resp)
		if resp.StatusCode != http.StatusOK {
			verdict = fmt.Sprintf("readyz answered %d", resp.StatusCode)
		}
	}
	_, wasReady := b.snapshot()
	b.setReady(verdict == "")
	if (verdict == "") != wasReady {
		if verdict == "" {
			r.cfg.Logf("router: backend %s re-admitted", b.label)
		} else {
			r.cfg.Logf("router: backend %s ejected: %s", b.label, verdict)
		}
	}
	return verdict
}

// healthLoop drives active probes for every backend until ctx is
// cancelled. A tick probes its backends on a goroutine each (par.Do), so
// one black-holed backend cannot delay the others' verdicts.
func (r *Router) healthLoop(ctx context.Context) {
	defer close(r.healthDone)
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		par.Do(ctx, len(r.backends), len(r.backends), func(_, i int) {
			r.probeOne(ctx, r.backends[i])
		})
		r.publishBackendGauges()
	}
}
