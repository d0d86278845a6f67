package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbqprl/internal/failpoint"
	"pbqprl/internal/server"
)

// TestChaosZeroFailedRequestsWhileAnyReplicaSurvives is the headline
// robustness claim under -race: three real pbqp-serve backends behind
// the router, one hard-killed mid-load (listener torn down and every
// open connection cut, the in-process stand-in for SIGKILL — the CI
// fleet-smoke stage does it with a real signal), plus failpoint-
// injected latency spikes and torn responses on the forward path. Every
// request must still complete with a correct answer within its
// deadline, and the failover and breaker-trip counters must show the
// machinery actually fired.
func TestChaosZeroFailedRequestsWhileAnyReplicaSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test takes seconds")
	}

	mkBackend := func() (*httptest.Server, *server.Server) {
		srv, err := server.New(server.Config{
			Workers:         4,
			DefaultChain:    []string{"liberty", "scholz"},
			DefaultDeadline: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(srv.Handler()), srv
	}
	var backends []*httptest.Server
	var srvs []*server.Server
	for i := 0; i < 3; i++ {
		ts, srv := mkBackend()
		backends = append(backends, ts)
		srvs = append(srvs, srv)
	}
	defer func() {
		for _, ts := range backends {
			ts.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, srv := range srvs {
			srv.Drain(ctx)
		}
	}()

	// Latency spikes on some forwards, torn responses on others. Both
	// must be absorbed by retries, never surfaced to a client.
	if err := failpoint.Enable("router/forward", "delay(50ms)*10"); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("router/forward/read", "error*4"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisableAll)

	cfg := Config{
		Backends:         []string{backends[0].URL, backends[1].URL, backends[2].URL},
		MaxTries:         6,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       20 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		HealthInterval:   50 * time.Millisecond,
		HealthTimeout:    500 * time.Millisecond,
		DefaultDeadline:  15 * time.Second,
		MaxDeadline:      15 * time.Second,
	}
	r := newTestRouter(t, cfg)

	const (
		workers        = 16
		perWorker      = 20
		distinctGraphs = 64
	)
	var failures atomic.Int64
	var firstFailure atomic.Value
	var wg sync.WaitGroup
	kill := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Mostly distinct graphs with some repeats, so the run
				// exercises the forward path and the cache together.
				g := graphN((w*perWorker + i) % distinctGraphs)
				rec := post(r.Handler(), g, nil)
				if rec.Code != http.StatusOK {
					failures.Add(1)
					firstFailure.CompareAndSwap(nil, fmt.Sprintf(
						"worker %d request %d: %d %s", w, i, rec.Code, rec.Body.String()))
				}
				if w == 0 && i == 4 {
					close(kill) // one replica dies while everyone is mid-load
				}
			}
		}(w)
	}

	// Hard-kill backend 0 once the load is flowing: stop the listener
	// and sever every established connection, so in-flight forwards
	// fail at the transport level exactly as with a SIGKILLed process.
	go func() {
		<-kill
		backends[0].CloseClientConnections()
		backends[0].Listener.Close()
	}()
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed while two replicas survived; first: %s",
			n, workers*perWorker, firstFailure.Load())
	}
	snap := r.Registry().Snapshot()
	if got := counterSum(r.Registry(), "router_backend_failovers_total."); got == 0 {
		t.Fatal("no failovers recorded; the kill or the failpoints should have forced some")
	}
	if snap.Counters["http_requests_total.200"] != workers*perWorker {
		t.Fatalf("http_requests_total.200 = %d, want %d",
			snap.Counters["http_requests_total.200"], workers*perWorker)
	}
	// The dead backend must end ejected — by the breaker, the prober,
	// or both.
	deadLabel := strings.TrimPrefix(backends[0].URL, "http://")
	tripped := counterSum(r.Registry(), "router_breaker_trips_total.") > 0
	ejected := snap.Gauges["router_backend_ready."+deadLabel] == 0
	if !tripped && !ejected {
		t.Fatalf("dead backend neither tripped a breaker nor was ejected by the prober: %+v", snap.Gauges)
	}
	t.Logf("chaos summary: tries=%d failovers=%d trips=%d coalesced=%d cache_hits=%d",
		counterSum(r.Registry(), "router_backend_tries_total."),
		counterSum(r.Registry(), "router_backend_failovers_total."),
		counterSum(r.Registry(), "router_breaker_trips_total."),
		snap.Counters["router_coalesced_total"],
		snap.Counters["router_cache_hits_total"])
}

// TestChaosHealthProbeFailpoint pins the router/health hook: an armed
// failpoint makes active probes fail, ejecting backends exactly like a
// network partition, and disarming it re-admits them.
func TestChaosHealthProbeFailpoint(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ready"}`))
	}))
	defer ts.Close()
	if err := failpoint.Enable("router/health", "error"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisableAll)

	cfg := testConfig(ts.URL)
	cfg.HealthInterval = 10 * time.Millisecond
	cfg.HealthTimeout = 200 * time.Millisecond
	r := newTestRouter(t, cfg)

	label := strings.TrimPrefix(ts.URL, "http://")
	waitFor(t, 5*time.Second, "failpoint-broken probe to eject the backend", func() bool {
		return r.Registry().Snapshot().Gauges["router_backend_ready."+label] == 0
	})
	failpoint.DisableAll()
	waitFor(t, 5*time.Second, "healthy probe to re-admit the backend", func() bool {
		return r.Registry().Snapshot().Gauges["router_backend_ready."+label] == 1
	})
}
