package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pbqprl/internal/game"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/server"
	"pbqprl/internal/solve/portfolio"
)

const fig2 = "../../testdata/fig2.pbqp"

// TestExitCodes pins each documented exit status of run.
func TestExitCodes(t *testing.T) {
	infeasible := filepath.Join(t.TempDir(), "infeasible.pbqp")
	// Two vertices whose only edge forbids every color pair.
	if err := os.WriteFile(infeasible, []byte("pbqp 2 2\nv 0 0 0\nv 1 0 0\ne 0 1 inf inf inf inf\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stdout string // a line the report must contain
		stderr string // text the diagnostics must contain
	}{
		{"solved", []string{fig2}, exitOK, "cost:      11", ""},
		{"unknown solver", []string{"-solver", "nosuch", fig2}, exitError, "", `unknown solver "nosuch"`},
		{"unknown order", []string{"-order", "sideways", fig2}, exitError, "", `unknown order "sideways"`},
		{"missing file", []string{filepath.Join(t.TempDir(), "absent.pbqp")}, exitError, "", "absent.pbqp"},
		{"infeasible", []string{infeasible}, exitInfeasible, "feasible:  false", ""},
		{"truncated", []string{"-solver", "brute", "-timeout", "1ns", fig2}, exitTruncated, "truncated: true", ""},
		{"chain", []string{"-solver", "liberty,scholz", fig2}, exitOK, "solver:    portfolio(liberty→scholz)", ""},
		{"decomp stage", []string{"-solver", "decomp:scholz", fig2}, exitOK, " eliminated_vertices=3 ", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstdout: %s\nstderr: %s", tc.args, got, tc.want, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q lacks %q", &stdout, tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", &stderr, tc.stderr)
			}
		})
	}
}

// TestMatchesServer solves the same graphs with the same chains through
// run -stats-json and through pbqp-serve's handler: the stage names,
// results and stats agree, durations and stage seconds aside.
func TestMatchesServer(t *testing.T) {
	// The graph of `pbqp-gen -kind zeroinf -n 30 -seed 3`.
	g, _ := randgraph.ZeroInf(rand.New(rand.NewSource(3)), randgraph.ZeroInfConfig{
		N: 30, M: 13, PEdge: 0.2, HardRatio: 0.4, PEdgeInf: 0.25,
	})
	var buf bytes.Buffer
	if err := pbqp.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	zeroinf := filepath.Join(t.TempDir(), "zeroinf.pbqp")
	if err := os.WriteFile(zeroinf, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Both commands default -order to dec; the server's zero value is fixed.
	srv, err := server.New(server.Config{Workers: 1, Order: game.OrderDecLiberty})
	if err != nil {
		t.Fatal(err)
	}
	// untimed zeroes what varies from run to run.
	untimed := func(st portfolio.Stats) portfolio.Stats {
		for i := range st.Stages {
			st.Stages[i].Duration = 0
			for key := range st.Stages[i].Result.Stats {
				if strings.HasSuffix(key, "_s") {
					st.Stages[i].Result.Stats[key] = 0
				}
			}
		}
		return st
	}
	for _, path := range []string{fig2, zeroinf} {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, chain := range []string{"scholz", "liberty,scholz", "decomp:scholz", "rl-bt,scholz", "decomp:rl-bt"} {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-solver", chain, "-stats-json", path}, &stdout, &stderr); code != exitOK {
				t.Fatalf("%s on %s: exit %d\n%s", chain, path, code, &stderr)
			}
			var cli portfolio.Stats
			if err := json.Unmarshal(stderr.Bytes(), &cli); err != nil {
				t.Fatalf("%s on %s: %v\n%s", chain, path, err, &stderr)
			}

			req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
			req.Header.Set(server.HeaderChain, chain)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			var resp server.SolveResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("%s on %s: HTTP %d %v\n%s", chain, path, rec.Code, err, rec.Body)
			}

			if got, want := untimed(cli), untimed(resp.Stats); !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s:\npbqp-solve %+v\npbqp-serve %+v", chain, path, got, want)
			}
			stats := cli.Stages[0].Result.Stats
			if _, ok := stats["blocks"]; strings.HasPrefix(chain, "decomp:") && !ok {
				t.Errorf("%s on %s: stats %v report no blocks", chain, path, stats)
			}
			// decomp:rl-bt reports its block solves' backtracks, summed,
			// where a block was left to solve (fig2 reduces away).
			solvesRL := strings.HasPrefix(chain, "rl-bt") || chain == "decomp:rl-bt" && stats["blocks"] > 0
			if _, ok := stats["backtracks"]; solvesRL && !ok {
				t.Errorf("%s on %s: stats %v report no backtracks", chain, path, stats)
			}
		}
	}
}
