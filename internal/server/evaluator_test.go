package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbqprl/internal/ate"
	"pbqprl/internal/gcn"
	"pbqprl/internal/mcts"
	pbqpnet "pbqprl/internal/net"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/tensor"
)

// smallATE is the textual PBQP graph of a small synthetic ATE program
// on the 13-register reference machine.
func smallATE(t *testing.T) string {
	t.Helper()
	prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
		Name: "serve-test", NumVRegs: 16, PairRatio: 0.30, HardRatio: 0.40, MaxLive: 8, Seed: 5,
	})
	g, err := ate.BuildPBQP(prog)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pbqp.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCloningEvaluatorConcurrentRequests pins what cmd/pbqp-serve -net
// does: one loaded base network, a factory that clones it on each
// request's handler goroutine, and concurrent rl-bt requests that each
// search on their own clone. Every request must succeed with the
// selection and cost a lone request gets, and the shared base — read
// by concurrent Clone calls, never evaluated — must come out
// byte-identical. Run under -race in CI.
func TestCloningEvaluatorConcurrentRequests(t *testing.T) {
	for _, c := range []struct {
		name, body string
		m          int
	}{
		{"fig2", fig2, 2},
		{"ate16", smallATE(t), ate.DefaultMachine().Registers},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := pbqpnet.New(pbqpnet.Config{M: c.m, GCNLayers: 1, Hidden: 8, Blocks: 1, Seed: 7})
			before, err := base.SaveBytes()
			if err != nil {
				t.Fatal(err)
			}
			srv := newTestServer(t, Config{
				Workers:         4,
				DefaultChain:    []string{"rl-bt"},
				DefaultDeadline: time.Minute,
				K:               12,
				Evaluator:       func() mcts.Evaluator { return base.Clone() },
			})
			ref := decodeSolve(t, post(srv.Handler(), c.body, "", nil))
			if !ref.Result.Feasible {
				t.Fatalf("single-request reference infeasible: %+v", ref.Result)
			}

			recs := make([]*httptest.ResponseRecorder, 16)
			var wg sync.WaitGroup
			for i := range recs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					recs[i] = post(srv.Handler(), c.body, "", nil)
				}(i)
			}
			wg.Wait()

			for i, rec := range recs {
				if rec.Code != http.StatusOK {
					t.Fatalf("request %d: status %d", i, rec.Code)
				}
				got := decodeSolve(t, rec).Result
				if !got.Feasible || got.Cost != ref.Result.Cost || !slices.Equal(got.Selection, ref.Result.Selection) {
					t.Fatalf("request %d: %+v, want the single-request answer %+v", i, got, ref.Result)
				}
			}
			after, err := base.SaveBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Error("serving changed the shared base network's weights or statistics")
			}
		})
	}
}

// panicOnThird evaluates on its network until its third call, which
// panics.
type panicOnThird struct {
	net   *pbqpnet.PBQPNet
	calls int
}

func (e *panicOnThird) Evaluate(view gcn.View) (tensor.Vec, float64) {
	if e.calls++; e.calls == 3 {
		panic("injected evaluator panic")
	}
	return e.net.Evaluate(view)
}

// TestEvaluatorPanicFallsThrough: an evaluator that panics mid-search
// takes down only its own stage. The portfolio recovers it, the request
// falls through to liberty and is answered, and the next request on the
// same server — handed a healthy clone — is served by rl-bt.
func TestEvaluatorPanicFallsThrough(t *testing.T) {
	body := smallATE(t)
	base := pbqpnet.New(pbqpnet.Config{M: ate.DefaultMachine().Registers, GCNLayers: 1, Hidden: 8, Blocks: 1, Seed: 7})
	var broken atomic.Bool
	srv := newTestServer(t, Config{
		Workers:         2,
		DefaultChain:    []string{"rl-bt", "liberty"},
		DefaultDeadline: time.Minute,
		K:               12,
		Evaluator: func() mcts.Evaluator {
			if broken.Load() {
				return &panicOnThird{net: base.Clone()}
			}
			return base.Clone()
		},
		Logf: func(string, ...any) {},
	})

	broken.Store(true)
	rec := post(srv.Handler(), body, "", nil)
	broken.Store(false)
	if rec.Code != http.StatusOK {
		t.Fatalf("request with the panicking evaluator: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	got := decodeSolve(t, rec)
	if st := got.Stats.Stages[0]; !st.Panicked || st.PanicValue != "injected evaluator panic" {
		t.Fatalf("rl-bt stage outcome %+v, want the recovered evaluator panic", st)
	}
	if !got.Result.Feasible || got.Stats.Winner != 1 {
		t.Fatalf("winner %d, result %+v: want liberty's feasible answer", got.Stats.Winner, got.Result)
	}

	rec = post(srv.Handler(), body, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("request after the panic: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	got = decodeSolve(t, rec)
	if got.Stats.Stages[0].Panicked || !got.Result.Feasible || got.Stats.Winner != 0 {
		t.Fatalf("request after the panic: %+v, want rl-bt to win", got.Stats)
	}
}
