package pbqp

// The graph as it stood before its rows became ordered slices: one
// map[int]*cost.Matrix per vertex, sorted on every ordered walk. It is
// the oracle the row layout is held to — same neighbors, same matrices
// by pointer, same edge order, same Equation 1 bits, same bytes — over
// seeded random sequences of every mutation and copy.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"pbqprl/internal/cost"
)

type referenceGraph struct {
	m     int
	vecs  []cost.Vector
	alive []bool
	live  int
	adj   []map[int]*cost.Matrix // adj[u][v] is oriented (rows = u's color)
}

func newReferenceGraph(n, m int) *referenceGraph {
	g := &referenceGraph{
		m:     m,
		vecs:  make([]cost.Vector, n),
		alive: make([]bool, n),
		live:  n,
		adj:   make([]map[int]*cost.Matrix, n),
	}
	for u := 0; u < n; u++ {
		g.vecs[u] = cost.NewVector(m)
		g.alive[u] = true
		g.adj[u] = make(map[int]*cost.Matrix)
	}
	return g
}

func (g *referenceGraph) NumVertices() int { return len(g.vecs) }

func (g *referenceGraph) HasEdge(u, v int) bool {
	_, ok := g.adj[u][v]
	return ok
}

func (g *referenceGraph) EdgeCost(u, v int) *cost.Matrix { return g.adj[u][v] }

func (g *referenceGraph) SetEdgeCost(u, v int, mat *cost.Matrix) {
	g.adj[u][v] = mat.Clone()
	g.adj[v][u] = mat.Transpose()
}

func (g *referenceGraph) AddEdgeCost(u, v int, mat *cost.Matrix) {
	sum := mat.Clone()
	if existing, ok := g.adj[u][v]; ok {
		sum.AddInPlace(existing)
	}
	g.adj[u][v] = sum
	g.adj[v][u] = sum.Transpose()
}

// adopt installs both orientations as given, so that the oracle can
// hold the very matrices the graph under test installed.
func (g *referenceGraph) adopt(u, v int, uv, vu *cost.Matrix) {
	g.adj[u][v] = uv
	g.adj[v][u] = vu
}

func (g *referenceGraph) RemoveEdge(u, v int) {
	delete(g.adj[u], v)
	delete(g.adj[v], u)
}

func (g *referenceGraph) RemoveVertex(u int) {
	if !g.alive[u] {
		return
	}
	for v := range g.adj[u] {
		delete(g.adj[v], u)
	}
	g.adj[u] = nil
	g.alive[u] = false
	g.live--
}

func (g *referenceGraph) Neighbors(u int) []int {
	ns := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		ns = append(ns, v)
	}
	sort.Ints(ns)
	return ns
}

func (g *referenceGraph) Degree(u int) int { return len(g.adj[u]) }

func (g *referenceGraph) Edges() []Edge {
	var es []Edge
	for u := range g.vecs {
		for _, v := range g.Neighbors(u) {
			if v > u {
				es = append(es, Edge{U: u, V: v, M: g.adj[u][v]})
			}
		}
	}
	return es
}

func (g *referenceGraph) NumEdges() int {
	n := 0
	for u := range g.vecs {
		n += len(g.adj[u])
	}
	return n / 2
}

func (g *referenceGraph) Clone() *referenceGraph {
	c := &referenceGraph{
		m:     g.m,
		vecs:  make([]cost.Vector, len(g.vecs)),
		alive: slices.Clone(g.alive),
		live:  g.live,
		adj:   make([]map[int]*cost.Matrix, len(g.adj)),
	}
	for u := range g.vecs {
		c.vecs[u] = g.vecs[u].Clone()
		c.adj[u] = make(map[int]*cost.Matrix, len(g.adj[u]))
		for v, m := range g.adj[u] {
			c.adj[u][v] = m
		}
	}
	return c
}

func (g *referenceGraph) TotalCost(sel Selection) cost.Cost {
	var sum cost.Cost
	for u := range g.vecs {
		if g.alive[u] {
			sum = sum.Add(g.vecs[u][sel[u]])
		}
	}
	for _, e := range g.Edges() {
		sum = sum.Add(e.M.At(sel[e.U], sel[e.V]))
	}
	return sum
}

func (g *referenceGraph) Induced(verts []int) *referenceGraph {
	pos := make(map[int]int, len(verts))
	for i, u := range verts {
		pos[u] = i
	}
	h := &referenceGraph{
		m:     g.m,
		vecs:  make([]cost.Vector, len(verts)),
		alive: make([]bool, len(verts)),
		live:  len(verts),
		adj:   make([]map[int]*cost.Matrix, len(verts)),
	}
	for i, u := range verts {
		h.vecs[i] = g.vecs[u].Clone()
		h.alive[i] = true
		h.adj[i] = make(map[int]*cost.Matrix)
		for v, m := range g.adj[u] {
			if j, ok := pos[v]; ok {
				h.adj[i][j] = m
			}
		}
	}
	return h
}

// write is Write's byte stream, built from the oracle's own walks.
func (g *referenceGraph) write() []byte {
	b := fmt.Appendf(nil, "pbqp %d %d\n", len(g.vecs), g.m)
	for u, vec := range g.vecs {
		b = append(appendCosts(append(b, "v "+strconv.Itoa(u)...), vec), '\n')
	}
	for _, e := range g.Edges() {
		b = append(appendCosts(fmt.Appendf(b, "e %d %d", e.U, e.V), e.M.Data), '\n')
	}
	return b
}

// graphPair is a graph under test and its oracle, driven in lockstep.
type graphPair struct {
	g   *Graph
	ref *referenceGraph
}

// agree fails t unless p's two graphs agree on every read, and the
// graph under test validates. full adds the O(n²) HasEdge/EdgeCost
// sweep and the serialization.
func (p graphPair) agree(t *testing.T, rng *rand.Rand, step int, full bool) {
	t.Helper()
	g, ref := p.g, p.ref
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: "+format, append([]any{step}, args...)...)
	}
	if err := g.Validate(); err != nil {
		fail("%v", err)
	}
	n := ref.NumVertices()
	if g.NumVertices() != n || g.AliveCount() != ref.live || g.NumEdges() != ref.NumEdges() {
		fail("shape %d/%d/%d, oracle %d/%d/%d", g.NumVertices(), g.AliveCount(), g.NumEdges(), n, ref.live, ref.NumEdges())
	}
	for u := 0; u < n; u++ {
		if g.Alive(u) != ref.alive[u] || g.Degree(u) != ref.Degree(u) || !g.VertexCost(u).Equal(ref.vecs[u]) {
			fail("vertex %d: alive %v degree %d vector %v, oracle %v %d %v",
				u, g.Alive(u), g.Degree(u), g.VertexCost(u), ref.alive[u], ref.Degree(u), ref.vecs[u])
		}
		ns := g.Neighbors(u)
		if !slices.Equal(ns, ref.Neighbors(u)) {
			fail("Neighbors(%d) = %v, oracle %v", u, ns, ref.Neighbors(u))
		}
		probe := ns
		if full {
			probe = make([]int, n)
			for v := range probe {
				probe[v] = v
			}
		} else {
			probe = append(probe, rng.Intn(n), rng.Intn(n))
		}
		for _, v := range probe {
			if g.HasEdge(u, v) != ref.HasEdge(u, v) || g.EdgeCost(u, v) != ref.EdgeCost(u, v) {
				fail("edge (%d,%d): HasEdge %v EdgeCost %p, oracle %v %p",
					u, v, g.HasEdge(u, v), g.EdgeCost(u, v), ref.HasEdge(u, v), ref.EdgeCost(u, v))
			}
		}
	}
	if es, want := g.Edges(), ref.Edges(); !slices.Equal(es, want) {
		fail("Edges differ: %d edges, oracle %d", len(es), len(want))
	}
	sel := make(Selection, n)
	for u := range sel {
		sel[u] = rng.Intn(g.M())
	}
	if got, want := g.TotalCost(sel), ref.TotalCost(sel); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
		fail("TotalCost %v, oracle %v", got, want)
	}
	if full && ref.live == n {
		var b bytes.Buffer
		if err := Write(&b, g); err != nil {
			fail("Write: %v", err)
		}
		if want := ref.write(); !bytes.Equal(b.Bytes(), want) {
			fail("Write bytes differ:\n%s\noracle:\n%s", Elide(b.String(), 400), Elide(string(want), 400))
		}
	}
}

// TestGraphMatchesReference drives the row-backed graph and the
// map-backed oracle through the same seeded sequences of SetEdgeCost,
// AddEdgeCost, RemoveEdge, RemoveVertex, Clone, CloneInto
// and InducedInto (into a graph the sequence dropped, so its stale rows
// are reused), Induced and Permute, and compares every read after every operation. The hub
// cases keep one vertex adjacent to most others, so its row is long
// enough to use the tail and tombstones; the descending ones give the
// hub its edges in descending order first.
func TestGraphMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name             string
		n, m, steps      int
		hub, descending  bool
		removeP, vertexP float64
	}{
		{name: "small", n: 10, m: 2, steps: 600, removeP: 0.3, vertexP: 0.03},
		{name: "hub", n: 120, m: 2, steps: 1500, hub: true, removeP: 0.35, vertexP: 0.01},
		{name: "hub descending", n: 120, m: 1, steps: 1500, hub: true, descending: true, removeP: 0.45, vertexP: 0.01},
		{name: "hub shrinking", n: 90, m: 2, steps: 1200, hub: true, descending: true, removeP: 0.6, vertexP: 0.02},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			randMat := func() *cost.Matrix {
				mat := cost.NewMatrix(tc.m, tc.m)
				for i := range mat.Data {
					mat.Data[i] = cost.Cost(rng.Intn(5))
				}
				return mat
			}
			p := graphPair{New(tc.n, tc.m), newReferenceGraph(tc.n, tc.m)}
			// install puts an edge into p.g by op and makes the oracle
			// hold the same two matrices once their values are checked.
			install := func(p graphPair, u, v int, add bool) {
				mat := randMat()
				if add {
					p.g.AddEdgeCost(u, v, mat)
					p.ref.AddEdgeCost(u, v, mat)
				} else {
					p.g.SetEdgeCost(u, v, mat)
					p.ref.SetEdgeCost(u, v, mat)
				}
				uv, vu := p.g.EdgeCost(u, v), p.g.EdgeCost(v, u)
				if uv == nil || !uv.Equal(p.ref.EdgeCost(u, v)) || !vu.Equal(p.ref.EdgeCost(v, u)) {
					t.Fatalf("edge (%d,%d) installed as %v / %v, oracle %v / %v", u, v, uv, vu, p.ref.EdgeCost(u, v), p.ref.EdgeCost(v, u))
				}
				p.ref.adopt(u, v, uv, vu)
			}
			if tc.hub {
				leaves := rng.Perm(tc.n - 1)
				if tc.descending {
					sort.Sort(sort.Reverse(sort.IntSlice(leaves)))
				}
				for _, v := range leaves {
					install(p, 0, v+1, false)
				}
			}
			pairs := []graphPair{p}
			var spare *Graph // the last graph dropped, for CloneInto and InducedInto
			for step := 0; step < tc.steps; step++ {
				k := len(pairs) - 1 - rng.Intn(min(2, len(pairs))) // mostly the newest
				if pairs[k].ref.live < 3 {
					pairs[k] = graphPair{New(tc.n, tc.m), newReferenceGraph(tc.n, tc.m)}
				}
				p := pairs[k]
				alive := p.ref.aliveVertices()
				u, v := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
				if tc.hub && rng.Intn(2) == 0 {
					u = p.ref.widest()
				}
				switch r := rng.Float64(); {
				case r < 2*tc.vertexP:
					p.g.RemoveVertex(u)
					p.ref.RemoveVertex(u)
				case r < 2*tc.vertexP+0.01:
					c := p.g.Clone()
					if spare != nil && rng.Intn(2) == 0 {
						c, spare = spare, nil
						p.g.CloneInto(c)
					}
					pairs = append(pairs, graphPair{c, p.ref.Clone()})
				case r < 2*tc.vertexP+0.02:
					order := slices.Clone(alive)
					rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
					pairs = append(pairs, graphPair{p.g.Permute(order), p.ref.Induced(order)})
				case r < 2*tc.vertexP+0.03:
					verts := slices.Clone(alive)
					rng.Shuffle(len(verts), func(i, j int) { verts[i], verts[j] = verts[j], verts[i] })
					verts = verts[:len(verts)/2+rng.Intn(len(verts)/2)]
					if rng.Intn(2) == 0 {
						slices.Sort(verts)
					}
					h := p.g.Induced(verts)
					if spare != nil && rng.Intn(2) == 0 {
						h, spare = spare, nil
						p.g.InducedInto(h, verts)
					}
					pairs = append(pairs, graphPair{h, p.ref.Induced(verts)})
				case r < 2*tc.vertexP+0.03+tc.removeP:
					if ns := p.ref.Neighbors(u); len(ns) > 0 && rng.Intn(4) > 0 {
						v = ns[rng.Intn(len(ns))]
					}
					p.g.RemoveEdge(u, v)
					p.ref.RemoveEdge(u, v)
				default:
					if u == v {
						continue
					}
					install(p, u, v, rng.Intn(2) == 0)
				}
				if len(pairs) > 4 {
					spare, pairs = pairs[0].g, pairs[1:]
				}
				pairs[len(pairs)-1].agree(t, rng, step, false)
				p.agree(t, rng, step, step%50 == 0)
				if step%100 == 0 {
					for _, q := range pairs {
						q.agree(t, rng, step, true)
					}
				}
			}
			for _, q := range pairs {
				q.agree(t, rng, tc.steps, true)
			}
		})
	}
}

func (g *referenceGraph) aliveVertices() []int {
	var vs []int
	for u, ok := range g.alive {
		if ok {
			vs = append(vs, u)
		}
	}
	return vs
}

// widest returns the alive vertex of highest degree, the lowest on ties.
func (g *referenceGraph) widest() int {
	best := -1
	for u, ok := range g.alive {
		if ok && (best < 0 || len(g.adj[u]) > len(g.adj[best])) {
			best = u
		}
	}
	return best
}
