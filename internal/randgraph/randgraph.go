// Package randgraph generates random PBQP problem instances.
//
// The paper trains its networks on Erdős–Rényi random PBQP graphs
// G(n, p_edge) whose cost vectors and matrices are random reals with a
// ratio p_inf of infinite entries (Section V-A uses p_inf = 1 % and
// normally distributed n with mean 100). For the ATE domain, every cost
// is zero or infinity; ZeroInf generates such instances around a hidden
// valid assignment so that a zero-cost solution is guaranteed to exist,
// mirroring real translatable test-pattern programs.
package randgraph

import (
	"math/rand"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
)

// Config parameterizes the Erdős–Rényi generator.
type Config struct {
	N     int     // number of vertices
	M     int     // number of colors
	PEdge float64 // probability of each of the n(n-1)/2 edges
	PInf  float64 // ratio of infinite cost entries (paper: 0.01)
	// MaxCost bounds finite random costs; zero means 10.
	MaxCost float64
}

// ErdosRenyi generates a random PBQP graph per the paper's training
// distribution. Vertex vectors always keep at least one finite entry so
// every instance has at least one finite-cost assignment candidate.
func ErdosRenyi(rng *rand.Rand, cfg Config) *pbqp.Graph {
	maxCost := cfg.MaxCost
	if maxCost == 0 {
		maxCost = 10
	}
	g := pbqp.New(cfg.N, cfg.M)
	entry := func() cost.Cost {
		if rng.Float64() < cfg.PInf {
			return cost.Inf
		}
		return cost.Cost(rng.Float64() * maxCost)
	}
	for u := 0; u < cfg.N; u++ {
		v := make(cost.Vector, cfg.M)
		for i := range v {
			v[i] = entry()
		}
		if v.AllInf() {
			v[rng.Intn(cfg.M)] = cost.Cost(rng.Float64() * maxCost)
		}
		g.SetVertexCost(u, v)
	}
	for u := 0; u < cfg.N; u++ {
		for w := u + 1; w < cfg.N; w++ {
			if rng.Float64() >= cfg.PEdge {
				continue
			}
			mat := cost.NewMatrix(cfg.M, cfg.M)
			for i := range mat.Data {
				mat.Data[i] = entry()
			}
			if mat.IsZero() {
				mat.Set(rng.Intn(cfg.M), rng.Intn(cfg.M), cost.Cost(1+rng.Float64()*maxCost))
			}
			g.SetEdgeCost(u, w, mat)
		}
	}
	return g
}

// LargeSparseConfig parameterizes the big-graph generator. It produces
// the kind of instance the decomposition pipeline targets: up to 10⁵
// vertices, locally dense but globally sparse, with a controllable
// number of connected components and articulation points.
type LargeSparseConfig struct {
	N int // total number of vertices (split across components)
	M int // number of colors
	// Components is the number of connected components; zero means 1.
	// Vertices are split into contiguous, near-equal ranges.
	Components int
	// ClusterSize is the target size of each dense cluster (a
	// biconnected block candidate); zero means 12. Each component is a
	// chain of clusters joined by single bridge edges, so every bridge
	// endpoint is an articulation point.
	ClusterSize int
	// Chords is the number of extra random intra-cluster edges per
	// cluster, on top of the circulant C(1,2) base (every cluster
	// vertex connects to its two ring successors, min degree 4, so the
	// clusters survive the R0/R1/R2 reductions). More chords shift the
	// degree distribution upward.
	Chords int
	// PInf is the ratio of infinite cost entries; keep it small (or
	// zero) on large instances if a feasible instance is required.
	PInf float64
}

// largeSparseMaxCost bounds LargeSparse's finite random costs.
const largeSparseMaxCost = 10

// LargeSparse generates a large sparse PBQP graph as chains of dense
// circulant clusters joined by bridges. The same seed yields a
// byte-identical instance (see TestLargeSparseDeterministic); the
// layout guarantees cfg.Components connected components and, for
// cluster counts ≥ 2, articulation points at every bridge endpoint.
func LargeSparse(rng *rand.Rand, cfg LargeSparseConfig) *pbqp.Graph {
	comps := cfg.Components
	if comps <= 0 {
		comps = 1
	}
	if comps > cfg.N {
		comps = cfg.N
	}
	clusterSize := cfg.ClusterSize
	if clusterSize <= 0 {
		clusterSize = 12
	}
	g := pbqp.New(cfg.N, cfg.M)
	entry := func() cost.Cost {
		if rng.Float64() < cfg.PInf {
			return cost.Inf
		}
		return cost.Cost(rng.Float64() * largeSparseMaxCost)
	}
	for u := 0; u < cfg.N; u++ {
		v := make(cost.Vector, cfg.M)
		for i := range v {
			v[i] = entry()
		}
		if v.AllInf() {
			v[rng.Intn(cfg.M)] = cost.Cost(rng.Float64() * largeSparseMaxCost)
		}
		g.SetVertexCost(u, v)
	}
	edge := func(u, w int) {
		if u == w || g.EdgeCost(u, w) != nil {
			return
		}
		mat := cost.NewMatrix(cfg.M, cfg.M)
		for i := range mat.Data {
			mat.Data[i] = entry()
		}
		if mat.IsZero() {
			mat.Set(rng.Intn(cfg.M), rng.Intn(cfg.M), cost.Cost(1+rng.Float64()*largeSparseMaxCost))
		}
		g.SetEdgeCost(u, w, mat)
	}
	for c := 0; c < comps; c++ {
		// Contiguous vertex range [lo, hi) for this component.
		lo := c * cfg.N / comps
		hi := (c + 1) * cfg.N / comps
		size := hi - lo
		clusters := size / clusterSize
		if clusters == 0 {
			clusters = 1
		}
		prevEnd := -1
		for k := 0; k < clusters; k++ {
			cLo := lo + k*size/clusters
			cHi := lo + (k+1)*size/clusters
			n := cHi - cLo
			// Circulant base: u — u+1 and u — u+2 around the ring.
			for i := 0; i < n; i++ {
				edge(cLo+i, cLo+(i+1)%n)
				if n > 2 {
					edge(cLo+i, cLo+(i+2)%n)
				}
			}
			for ch := 0; ch < cfg.Chords && n > 3; ch++ {
				edge(cLo+rng.Intn(n), cLo+rng.Intn(n))
			}
			if prevEnd >= 0 {
				// Single bridge from the previous cluster: both
				// endpoints become articulation points.
				edge(prevEnd, cLo)
			}
			prevEnd = cHi - 1
		}
	}
	return g
}

// NormalN samples a vertex count from a normal distribution with the
// given mean and standard deviation, clamped to [min, ∞).
func NormalN(rng *rand.Rand, mean, stddev float64, min int) int {
	n := int(rng.NormFloat64()*stddev + mean)
	if n < min {
		n = min
	}
	return n
}

// ZeroInfConfig parameterizes the ATE-style zero/infinity generator.
type ZeroInfConfig struct {
	N     int     // number of vertices
	M     int     // number of colors (ATE: 13)
	PEdge float64 // edge probability
	// HardRatio is the fraction of vertices with liberty ≤ 4
	// (the paper reports ~40 % for real ATE programs).
	HardRatio float64
	// PEdgeInf is the probability that an edge matrix entry (other
	// than the hidden assignment's) is infinite, for edges incident
	// to at least one hard vertex. Edges between two easy vertices use
	// PEdgeInf/8: in real ATE programs the irregular pairing and
	// major-cycle constraints concentrate on a minority of registers, so
	// easy-easy interactions are sparse and the liberty solver's
	// approximated remainder is tractable.
	PEdgeInf float64
}

// ZeroInf generates a zero/infinity PBQP graph with a guaranteed
// zero-cost solution, which it returns alongside the graph. All finite
// entries are exactly zero, so any solution cost is zero or infinity —
// the no-spill ATE regime of Section II-B.
func ZeroInf(rng *rand.Rand, cfg ZeroInfConfig) (*pbqp.Graph, pbqp.Selection) {
	pEasyInf := cfg.PEdgeInf / 8
	g := pbqp.New(cfg.N, cfg.M)
	hidden := make(pbqp.Selection, cfg.N)
	hard := make([]bool, cfg.N)
	for u := range hidden {
		hidden[u] = rng.Intn(cfg.M)
		hard[u] = rng.Float64() < cfg.HardRatio
	}
	easyLo := 5 // easy vertex: liberty in [5, m] (clamped for small m)
	if easyLo > cfg.M {
		easyLo = cfg.M
	}
	hardHi := 4 // hard vertex: liberty in [1, 4] (clamped for small m)
	if hardHi > cfg.M {
		hardHi = cfg.M
	}
	for u := 0; u < cfg.N; u++ {
		liberty := easyLo + rng.Intn(cfg.M-easyLo+1)
		if hard[u] {
			liberty = 1 + rng.Intn(hardHi)
		}
		v := cost.NewInfVector(cfg.M)
		v[hidden[u]] = 0
		for _, c := range rng.Perm(cfg.M) {
			if liberty <= 1 {
				break
			}
			if v[c].IsInf() {
				v[c] = 0
				liberty--
			}
		}
		g.SetVertexCost(u, v)
	}
	for u := 0; u < cfg.N; u++ {
		for w := u + 1; w < cfg.N; w++ {
			if rng.Float64() >= cfg.PEdge {
				continue
			}
			pInf := cfg.PEdgeInf
			if !hard[u] && !hard[w] {
				pInf = pEasyInf
			}
			mat := cost.NewMatrix(cfg.M, cfg.M)
			for i := 0; i < cfg.M; i++ {
				for j := 0; j < cfg.M; j++ {
					if i == hidden[u] && j == hidden[w] {
						continue // keep the hidden solution feasible
					}
					if rng.Float64() < pInf {
						mat.Set(i, j, cost.Inf)
					}
				}
			}
			if !mat.IsZero() {
				g.SetEdgeCost(u, w, mat)
			}
		}
	}
	return g, hidden
}
