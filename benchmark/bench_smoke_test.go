package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbqprl/internal/server"
	"pbqprl/internal/solve/liberty"
)

// smokeSizes is every workload at about 1/40 of the reference counts:
// enough to enter every code path, small enough for tier-1.
func smokeSizes() sizes {
	return sizes{
		setupReps:     1,
		missPerClass:  1,
		hotPerClass:   1,
		hotRequests:   250,
		trainIters:    1,
		trainEpisodes: 4,
		bigRounds:     1,
		bigVertices:   2000,
	}
}

// TestSmoke runs all four workloads, traced (which runs the untraced
// pass too), and asserts that every declared metric comes out present,
// finite and in its declared unit, that no operation failed, and that
// each serve workload bypasses the layer the other stresses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	measured := map[string]metrics{}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			res, err := runWorkload(name, 1, referenceSeconds/40.0, smokeSizes(), true, tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			measured[name] = metrics{}
			for k, v := range res.Metrics {
				measured[name][k] = v
			}
			exercised := len(res.Metrics)
			fillUnexercised(res.Metrics)
			for _, spec := range endToEndSpecs {
				if m := res.Metrics[spec.Name]; m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", spec.Name, m.Value)
				}
			}
			declared := map[string]string{}
			for _, spec := range append(append([]metricSpec{}, endToEndSpecs...), perLayerSpecs...) {
				declared[spec.Name] = spec.Unit
				m, ok := res.Metrics[spec.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != spec.Unit {
					t.Errorf("metric %s = %+v (present %v), want a finite value in %s", spec.Name, m, ok, spec.Unit)
				}
			}
			for got := range res.Metrics {
				if _, ok := declared[got]; !ok {
					t.Errorf("metric %s is reported but not declared in specs.go", got)
				}
			}
			if exercised < len(endToEndSpecs)+8 {
				t.Errorf("only %d metrics measured; the traced pass reported no layers", exercised)
			}
			var buf bytes.Buffer
			printResult(&buf, res, perLayerSpecs)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last struct {
				Correct   *bool             `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
				Extra     map[string]any    `json:"-"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if last.Correct == nil || last.Failed == nil || last.Attempted < 1 || len(last.Metrics) != len(perLayerSpecs) {
				t.Errorf("last line %s does not carry the contract's keys and every per-layer metric", lines[len(lines)-1])
			}
			if _, err := os.Stat(tracePath); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}
		})
	}
	miss, hot := measured["serve_miss"], measured["serve_hot"]
	if miss == nil || hot == nil {
		return // a serve workload failed above
	}
	if r := miss["router.cache_hit_ratio"].Value; r > 0 {
		t.Errorf("serve_miss cache hit ratio %v, want 0", r)
	}
	if r := hot["router.cache_hit_ratio"].Value; r < 1 {
		t.Errorf("serve_hot cache hit ratio %v, want 1", r)
	}
	if _, ok := hot["portfolio.stage_ms.rl-bt"]; ok {
		t.Errorf("serve_hot reports portfolio stage time: its traffic reached a solver")
	}
	if miss["portfolio.stage_ms.rl-bt"].Value <= 0 {
		t.Errorf("serve_miss reports no rl-bt stage time")
	}
}

// TestCheckerCatchesCorruption makes sure the answer check cannot pass
// vacuously: a correct reply passes, and every way of corrupting it is
// caught.
func TestCheckerCatchesCorruption(t *testing.T) {
	pool, err := loadPool()
	if err != nil {
		t.Fatal(err)
	}
	req, err := newRequest(pool[0][0])
	if err != nil {
		t.Fatal(err)
	}
	g := req.graph
	good := server.SolveResponse{Result: liberty.Solver{MaxStates: screenStates}.Solve(g)}
	encode := func(mutate func(*server.SolveResponse)) []byte {
		resp := good
		resp.Result.Selection = good.Result.Selection.Clone()
		mutate(&resp)
		data, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if _, err := checkReply(g, 200, "miss", "miss", encode(func(*server.SolveResponse) {})); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	forbidden := func(r *server.SolveResponse) {
		for u := 0; u < g.NumVertices(); u++ {
			for a, c := range g.VertexCost(u) {
				if c.IsInf() {
					r.Result.Selection[u] = a
					return
				}
			}
		}
		t.Fatal("pool graph has no forbidden color to corrupt with")
	}
	corruptions := map[string]func(*server.SolveResponse){
		"forbidden color":    forbidden,
		"color out of range": func(r *server.SolveResponse) { r.Result.Selection[0] = g.M() },
		"short selection":    func(r *server.SolveResponse) { r.Result.Selection = r.Result.Selection[1:] },
		"wrong cost":         func(r *server.SolveResponse) { r.Result.Cost = 7 },
		"truncated":          func(r *server.SolveResponse) { r.Result.Truncated = true },
		"infeasible":         func(r *server.SolveResponse) { r.Result.Feasible = false },
	}
	for name, mutate := range corruptions {
		if _, err := checkReply(g, 200, "miss", "miss", encode(mutate)); err == nil {
			t.Errorf("%s: corrupted reply passed the checker", name)
		}
	}
	ok := encode(func(*server.SolveResponse) {})
	if _, err := checkReply(g, 504, "miss", "miss", ok); err == nil {
		t.Error("a 504 passed the checker")
	}
	if _, err := checkReply(g, 200, "miss", "hit", ok); err == nil {
		t.Error("a cache miss passed as a hit")
	}
	if _, err := checkReply(g, 200, "miss", "miss", []byte("{")); err == nil {
		t.Error("an undecodable reply passed the checker")
	}
}

// TestPoolIsWhatScreenProduces regenerates the request pool and
// compares it with the checked-in table. Equality also means every
// entry still solves under the screening budget: screenPool keeps
// nothing that does not.
func TestPoolIsWhatScreenProduces(t *testing.T) {
	if _, err := loadPool(); err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		t.Skip("re-screens ~210 programs; skipped under -short")
	}
	var log bytes.Buffer
	pool, err := screenPool(&log)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodePool(pool), poolJSON) {
		t.Errorf("testdata/ate_pool.json is not what -screen produces; rerun `go run ./benchmark -screen`\n%s", log.String())
	}
}

// TestContractMatchesSpecs keeps /BENCHMARK.json and specs.go in step.
func TestContractMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, the counts are sized for %d", contract.RunSeconds, referenceSeconds)
	}
	if len(contract.Paths) != 1 || contract.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", contract.Paths)
	}
	if len(contract.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(contract.Workloads), len(workloadNames))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v, want %s with a one-line why", i, w, workloadNames[i])
		}
	}
	same := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in specs.go", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: %+v, specs.go has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && math.Abs(*g.Bound-w.Bound) > 1e-12) {
				t.Errorf("%s[%d] %s: bound %v, specs.go has %v (bounded: %v)", kind, i, g.Name, g.Bound, w.Bound, bounded)
			}
		}
	}
	same("end_to_end", contract.EndToEnd, endToEndSpecs, true)
	same("per_layer", contract.PerLayer, perLayerSpecs, false)
}
