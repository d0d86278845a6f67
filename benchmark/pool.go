package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"pbqprl/internal/ate"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/solve/liberty"
)

// The request pool. classVRegs are the PRO1–PRO6 sizes of ate.Suite;
// PRO7–PRO10 are out on purpose (README.md, known gap serve_big).
var classVRegs = []int{28, 45, 60, 78, 95, 115}

const (
	poolPerClass = 20
	// screenStates is the liberty budget an instance must be solvable
	// under to enter the pool — the same budget the serving stack runs
	// with, so the chain's liberty stage solves whatever rl-bt does not.
	screenStates = 4000
)

// poolEntry names one ATE program: ate.GenConfig is otherwise as in
// ate.Suite, so (vregs, seed) determines the PBQP graph.
type poolEntry struct {
	VRegs int   `json:"vregs"`
	Seed  int64 `json:"seed"`
}

// poolPath is where -screen writes the table, relative to the
// repository root the benchmark is run from.
const poolPath = "benchmark/testdata/ate_pool.json"

//go:embed testdata/ate_pool.json
var poolJSON []byte

// loadPool returns the checked-in pool grouped by size class.
func loadPool() ([][]poolEntry, error) {
	var flat []poolEntry
	if err := json.Unmarshal(poolJSON, &flat); err != nil {
		return nil, fmt.Errorf("ate_pool.json: %w", err)
	}
	byClass := make([][]poolEntry, len(classVRegs))
	for _, e := range flat {
		c := -1
		for i, v := range classVRegs {
			if v == e.VRegs {
				c = i
			}
		}
		if c < 0 {
			return nil, fmt.Errorf("ate_pool.json: %d vregs is not a pool size class", e.VRegs)
		}
		byClass[c] = append(byClass[c], e)
	}
	for c, es := range byClass {
		if len(es) != poolPerClass {
			return nil, fmt.Errorf("ate_pool.json: class %d vregs has %d entries, want %d", classVRegs[c], len(es), poolPerClass)
		}
	}
	return byClass, nil
}

// ateGraph builds the PBQP graph of the synthetic ATE program
// (vregs, seed), with the generator settings of ate.Suite.
func ateGraph(vregs int, seed int64) (*pbqp.Graph, error) {
	g, _, err := ateInstance(vregs, seed)
	return g, err
}

// ateInstance is ateGraph plus the generator's hidden zero-cost
// assignment, which only the probes use (to play a game to its end).
func ateInstance(vregs int, seed int64) (*pbqp.Graph, pbqp.Selection, error) {
	prog, hidden := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
		Name:      "bench",
		NumVRegs:  vregs,
		PairRatio: 0.30,
		HardRatio: 0.40,
		MaxLive:   8,
		Seed:      seed,
	})
	g, err := ate.BuildPBQP(prog)
	return g, hidden, err
}

// screens reports whether the baseline solves the instance within the
// serving budget.
func screens(g *pbqp.Graph) bool {
	res := liberty.Solver{MaxStates: screenStates}.SolveCtx(context.Background(), g)
	return res.Feasible && !res.Truncated
}

// screenPool regenerates the pool: for each size class it walks
// candidate seeds upward from a fixed start and keeps the first
// poolPerClass instances that screen. It writes the pass rates to log.
func screenPool(log io.Writer) ([]poolEntry, error) {
	var pool []poolEntry
	for c, vregs := range classVRegs {
		kept, tried := 0, 0
		for seed := int64(1000 * (c + 1)); kept < poolPerClass; seed++ {
			g, err := ateGraph(vregs, seed)
			if err != nil {
				return nil, err
			}
			tried++
			if screens(g) {
				pool = append(pool, poolEntry{VRegs: vregs, Seed: seed})
				kept++
			}
		}
		fmt.Fprintf(log, "screen: %3d vregs: kept %d of %d candidates (%.0f%%)\n",
			vregs, kept, tried, 100*float64(kept)/float64(tried))
	}
	return pool, nil
}

// encodePool renders the pool the way it is checked in: one entry per
// line, so a regenerated table diffs line by line.
func encodePool(pool []poolEntry) []byte {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, e := range pool {
		fmt.Fprintf(&buf, "  {\"vregs\": %d, \"seed\": %d}", e.VRegs, e.Seed)
		if i < len(pool)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return buf.Bytes()
}

// request is one pool graph as the harness keeps it: its own parsed
// copy for checking answers, the canonical bytes it sends, and the
// canonical hash that identifies the request in spans.
type request struct {
	graph *pbqp.Graph
	body  []byte
	id    string
}

func newRequest(e poolEntry) (*request, error) {
	g, err := ateGraph(e.VRegs, e.Seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := pbqp.Write(&buf, g); err != nil {
		return nil, err
	}
	sum, err := pbqp.CanonicalHash(g)
	if err != nil {
		return nil, err
	}
	return &request{graph: g, body: buf.Bytes(), id: hex.EncodeToString(sum[:])}, nil
}

// drawRequests picks perClass distinct pool graphs from every size
// class with rng and returns them class-major (class 0 first). The
// size mix is the same for every seed; the seed picks the instances.
func drawRequests(pool [][]poolEntry, perClass int, rng *rand.Rand) ([]*request, error) {
	var out []*request
	for c, entries := range pool {
		if perClass > len(entries) {
			return nil, fmt.Errorf("pool holds %d graphs of %d vregs, %d wanted", len(entries), classVRegs[c], perClass)
		}
		for _, i := range rng.Perm(len(entries))[:perClass] {
			r, err := newRequest(entries[i])
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}
