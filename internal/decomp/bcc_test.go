package decomp

import (
	"math/rand"
	"testing"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
)

// edgeGraph builds an m=2 graph over n vertices with a unit cost on
// every listed edge, suitable for structure tests.
func edgeGraph(n int, edges [][2]int) *pbqp.Graph {
	g := pbqp.New(n, 2)
	for u := 0; u < n; u++ {
		g.SetVertexCost(u, cost.Vector{0, 1})
	}
	mat := cost.NewMatrix(2, 2)
	mat.Set(0, 0, 1)
	for _, e := range edges {
		g.SetEdgeCost(e[0], e[1], mat)
	}
	return g
}

func scanOf(t *testing.T, g *pbqp.Graph) (*pbqp.CSR, *scanner) {
	t.Helper()
	c := pbqp.NewCSR(g)
	s := new(scanner)
	s.run(c)
	return c, s
}

// cuts returns the sorted graph ids of articulation vertices.
func cuts(c *pbqp.CSR, s *scanner) []int {
	var out []int
	for i := 0; i < c.Len(); i++ {
		if s.isCut[i] {
			out = append(out, c.ID(i))
		}
	}
	return out
}

func TestBCCTwoTrianglesSharedVertex(t *testing.T) {
	g := edgeGraph(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}})
	c, s := scanOf(t, g)
	if s.numComps() != 1 || s.numBlocks() != 2 {
		t.Fatalf("comps=%d blocks=%d, want 1 and 2", s.numComps(), s.numBlocks())
	}
	if got := cuts(c, s); len(got) != 1 || got[0] != 2 {
		t.Fatalf("cut vertices %v, want [2]", got)
	}
	for b := 0; b < 2; b++ {
		if len(s.block(b)) != 3 {
			t.Fatalf("block %d has %d vertices, want 3", b, len(s.block(b)))
		}
	}
	// The non-root block must be anchored at the shared vertex.
	for b := 0; b < 2; b++ {
		if !s.isRoot[b] && c.ID(int(s.block(b)[0])) != 2 {
			t.Fatalf("non-root block anchored at %d, want 2", c.ID(int(s.block(b)[0])))
		}
	}
}

func TestBCCBridge(t *testing.T) {
	// Triangle 0-1-2, bridge 2-3, triangle 3-4-5.
	g := edgeGraph(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5}})
	c, s := scanOf(t, g)
	if s.numComps() != 1 || s.numBlocks() != 3 {
		t.Fatalf("comps=%d blocks=%d, want 1 and 3", s.numComps(), s.numBlocks())
	}
	if got := cuts(c, s); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("cut vertices %v, want [2 3]", got)
	}
	sizes := map[int]int{}
	for b := 0; b < 3; b++ {
		sizes[len(s.block(b))]++
	}
	if sizes[2] != 1 || sizes[3] != 2 {
		t.Fatalf("block sizes %v, want one bridge (2) and two triangles (3)", sizes)
	}
}

func TestBCCCycleSingleBlock(t *testing.T) {
	g := edgeGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
	c, s := scanOf(t, g)
	if s.numComps() != 1 || s.numBlocks() != 1 || len(s.block(0)) != 5 {
		t.Fatalf("comps=%d blocks=%d size=%d, want 1/1/5", s.numComps(), s.numBlocks(), len(s.block(0)))
	}
	if got := cuts(c, s); len(got) != 0 {
		t.Fatalf("cycle has cut vertices %v", got)
	}
	if !s.isRoot[0] {
		t.Fatal("single block not marked root")
	}
}

func TestBCCDisconnectedAndIsolated(t *testing.T) {
	// Triangle 0-1-2, isolated 3, edge 4-5.
	g := edgeGraph(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {4, 5}})
	_, s := scanOf(t, g)
	if s.numComps() != 3 || s.numBlocks() != 3 {
		t.Fatalf("comps=%d blocks=%d, want 3 and 3", s.numComps(), s.numBlocks())
	}
	roots := 0
	for b := 0; b < s.numBlocks(); b++ {
		if s.isRoot[b] {
			roots++
		}
	}
	if roots != 3 {
		t.Fatalf("%d root blocks, want 3 (one per component)", roots)
	}
	for comp := 0; comp < 3; comp++ {
		lo, hi := s.comp(comp)
		if hi-lo != 1 || !s.isRoot[lo] {
			t.Fatalf("component %d spans blocks [%d,%d), root=%v", comp, lo, hi, s.isRoot[lo])
		}
	}
}

// TestBCCRandomInvariants checks the structural invariants the solver
// relies on, over random graphs: every vertex appears in some block,
// every non-anchor appearance is unique, every non-root block's anchor
// reappears in a later block of the same component (its parent), and
// the component block ranges partition the block list.
func TestBCCRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(25)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.12 {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := edgeGraph(n, edges)
		c, s := scanOf(t, g)
		if int(s.compOff[s.numComps()]) != s.numBlocks() {
			t.Fatalf("component ranges do not cover all blocks")
		}
		seen := make([]int, c.Len()) // non-anchor appearances
		for comp := 0; comp < s.numComps(); comp++ {
			lo, hi := s.comp(comp)
			for b := lo; b < hi; b++ {
				verts := s.block(b)
				if len(verts) == 0 {
					t.Fatal("empty block")
				}
				for i, v := range verts {
					if i == 0 && !s.isRoot[b] {
						continue
					}
					seen[v]++
				}
				if !s.isRoot[b] {
					anchor := verts[0]
					found := false
					for b2 := b + 1; b2 < hi && !found; b2++ {
						for _, v2 := range s.block(b2) {
							if v2 == anchor {
								found = true
								break
							}
						}
					}
					if !found {
						t.Fatalf("non-root block %d anchor %d has no later parent block", b, anchor)
					}
				}
			}
			if !s.isRoot[hi-1] {
				t.Fatalf("component %d's last block is not its root", comp)
			}
		}
		for v, k := range seen {
			if k != 1 {
				t.Fatalf("vertex %d counted %d times across blocks, want exactly once\n%s", c.ID(v), k, g)
			}
		}
	}
}

// TestBCCScanAllocFree pins the satellite promise: once the scanner's
// scratch exists, a full block-cut scan allocates nothing.
func TestBCCScanAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var edges [][2]int
	const n = 300
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.01 {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	g := edgeGraph(n, edges)
	c := pbqp.NewCSR(g)
	s := new(scanner)
	s.run(c)
	allocs := testing.AllocsPerRun(20, func() { s.run(c) })
	if allocs != 0 {
		t.Fatalf("block-cut scan allocates %.1f times per run, want 0", allocs)
	}
}
