package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if math.Abs(q1-0.75) > 1e-12 || math.Abs(q3-2.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("client.request", "a", "", at(0), at(100))
	tr.add("router.handle", "a", "client.request", at(10), at(90))
	tr.add("server.handle", "a", "router.handle", at(20), at(80))
	tr.add("client.request", "b", "", at(0), at(50)) // another request: not a's child
	self := tr.selfTimes()
	want := map[string]time.Duration{
		"client.request": 70 * time.Millisecond, // 20 of a, 50 of b
		"router.handle":  20 * time.Millisecond,
		"server.handle":  60 * time.Millisecond,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, self[name], d)
		}
	}
}

func reportOf(workload string, failed int, values map[string][]float64) report {
	var rep report
	n := 0
	for _, xs := range values {
		n = len(xs)
	}
	for i := 0; i < n; i++ {
		res := result{Workload: workload, Attempted: 100, Failed: failed, Metrics: metrics{}}
		for name, xs := range values {
			res.Metrics.set(name, xs[i], "")
		}
		rep.Results = append(rep.Results, res)
	}
	return rep
}

func TestCompareVerdicts(t *testing.T) {
	bound := map[string]float64{}
	for _, spec := range endToEndSpecs {
		bound[spec.Name] = spec.Bound
	}
	five := func(x float64) []float64 { return []float64{x, x * 1.01, x * 0.99, x, x} }
	pair := func(throughput, latency []float64) map[string][]float64 {
		return map[string][]float64{"throughput_per_s": throughput, "latency_p50_ms": latency}
	}
	base := reportOf("serve_miss", 0, pair(five(100), five(10)))
	slower := 100 * (1 - bound["throughput_per_s"]) // exactly at the bound
	longer := 10 * (1 + bound["latency_p50_ms"])
	cases := []struct {
		name     string
		next     report
		wantCode int
		wantText string
	}{
		{"within bound", reportOf("serve_miss", 0, pair(five(slower+2), five(longer-0.2))), 0, "ok"},
		{"throughput regression", reportOf("serve_miss", 0, pair(five(slower-2), five(10))), 1, "REGRESSION"},
		{"latency regression", reportOf("serve_miss", 0, pair(five(100), five(longer+0.2))), 1, "REGRESSION"},
		{"spread wider than the bound", reportOf("serve_miss", 0, pair([]float64{40, 100, 70, 30, 160}, five(10))), 0, "unresolved"},
		{"more failures", reportOf("serve_miss", 1, pair(five(100), five(10))), 1, "REGRESSION"},
		{"nothing in common", reportOf("train", 0, map[string][]float64{"throughput_per_s": {8}}), 1, "no (metric, workload) pair"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		code := compareReports(base, c.next, &out)
		if code != c.wantCode || !strings.Contains(out.String(), c.wantText) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", c.name, code, c.wantCode, c.wantText, out.String())
		}
	}
}
