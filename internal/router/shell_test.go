package router

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pbqprl/internal/server"
	"pbqprl/internal/server/metrics"
)

// TestShellMatchesServer sends the same front-door requests to a
// pbqp-serve handler and a router handler: both answer through
// server.Shell, so status, headers and JSON body agree byte for byte,
// but for the daemon's name in a draining refusal.
func TestShellMatchesServer(t *testing.T) {
	const maxBody = 1024
	srv, err := server.New(server.Config{MaxRequestBytes: maxBody, DefaultChain: []string{"scholz"}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig("http://127.0.0.1:1") // never contacted: the shell answers every request below
	cfg.MaxRequestBytes = maxBody
	rt := newTestRouter(t, cfg)
	daemons := []struct {
		name  string
		h     http.Handler
		drain func(context.Context) error
	}{
		{"server", srv.Handler(), srv.Drain},
		{"router", rt.Handler(), rt.Drain},
	}

	for _, tc := range []struct {
		name               string
		drainFirst         bool
		method, path, body string
		status             int
	}{
		{"GET /v1/solve", false, http.MethodGet, "/v1/solve", "", http.StatusMethodNotAllowed},
		{"oversized body", false, http.MethodPost, "/v1/solve", strings.Repeat("# padding\n", 200), http.StatusRequestEntityTooLarge},
		{"healthz", false, http.MethodGet, "/healthz", "", http.StatusOK},
		{"readyz", false, http.MethodGet, "/readyz", "", http.StatusOK},
		{"readyz while draining", true, http.MethodGet, "/readyz", "", http.StatusServiceUnavailable},
		{"solve while draining", false, http.MethodPost, "/v1/solve", fig2, http.StatusServiceUnavailable},
		{"healthz while draining", false, http.MethodGet, "/healthz", "", http.StatusOK},
	} {
		var recs []*httptest.ResponseRecorder
		var bodies []string
		for _, d := range daemons {
			if tc.drainFirst {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := d.drain(ctx)
				cancel()
				if err != nil {
					t.Fatalf("%s drain: %v", d.name, err)
				}
			}
			rec := httptest.NewRecorder()
			d.h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if rec.Code != tc.status {
				t.Fatalf("%s: %s answered %d, want %d: %s", tc.name, d.name, rec.Code, tc.status, rec.Body)
			}
			if !json.Valid(rec.Body.Bytes()) || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s: %s answered %q as %q, want JSON", tc.name, d.name, rec.Body, rec.Header().Get("Content-Type"))
			}
			recs = append(recs, rec)
			bodies = append(bodies, strings.Replace(rec.Body.String(), d.name+" is draining", "… is draining", 1))
		}
		for _, h := range []string{"Content-Type", "Allow", "Retry-After"} {
			if a, b := recs[0].Header().Get(h), recs[1].Header().Get(h); a != b {
				t.Errorf("%s: %s header: server %q, router %q", tc.name, h, a, b)
			}
		}
		if bodies[0] != bodies[1] {
			t.Errorf("%s: server answered %q, router %q", tc.name, bodies[0], bodies[1])
		}
	}

	for _, d := range daemons {
		var snap metrics.Snapshot
		if err := json.Unmarshal([]byte(get(t, d.h, "/metrics")), &snap); err != nil {
			t.Fatalf("%s /metrics: %v", d.name, err)
		}
		for _, code := range []string{"405", "413", "503"} {
			if n := snap.Counters["http_requests_total."+code]; n != 1 {
				t.Errorf("%s: http_requests_total.%s = %d, want 1", d.name, code, n)
			}
			h := snap.Histograms["http_request_seconds."+code]
			if h.Count != 1 || len(h.Buckets) == 0 || h.Buckets[len(h.Buckets)-1].LE != "+inf" {
				t.Errorf("%s: http_request_seconds.%s = %+v, want one observation up to +inf", d.name, code, h)
			}
		}
		for _, g := range []string{"queue_depth", "requests_inflight"} {
			if _, ok := snap.Gauges[g]; !ok {
				t.Errorf("%s: /metrics lacks the %s gauge: %+v", d.name, g, snap.Gauges)
			}
		}
	}
}

// get GETs path from h and returns the body.
func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.String()
}
