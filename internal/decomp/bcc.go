package decomp

import (
	"slices"

	"pbqprl/internal/pbqp"
)

// scanner computes the block-cut decomposition of a CSR snapshot:
// connected components, biconnected blocks (Hopcroft–Tarjan, iterative
// so 10⁵-vertex paths cannot blow the goroutine stack), and
// articulation (cut) vertices. All scratch is sized from the CSR
// dimensions at the start of run and kept, so a scanner run again and
// again (decomp keeps one per pooled workspace) performs zero
// allocations once it has grown — the AllocsPerRun test in bcc_test.go
// pins that.
//
// Output layout, all in emission order:
//
//   - block b's vertices are verts[off[b]:off[b+1]], anchor first. The
//     anchor of a non-root block is the cut vertex shared with its
//     parent toward the component root; sibling blocks repeat it.
//   - isRoot[b] marks the one root block per component (the last block
//     emitted for it, always containing the DFS root).
//   - component c owns the contiguous block range
//     [compOff[c], compOff[c+1]). Emission order is a post-order of the
//     block-cut tree: every block appears after all blocks anchored at
//     its non-anchor vertices, so a forward sweep can fold children
//     into parents and a backward sweep can propagate colors down.
//   - isCut[v] marks articulation vertices (CSR indices).
//
// Degree-0 vertices become single-vertex root blocks so every residual
// vertex belongs to exactly one component and at least one block.
type scanner struct {
	csr   *pbqp.CSR
	disc  []int32
	low   []int32
	stamp []int32 // block id that last collected the vertex

	frames []frame
	edgeU  []int32
	edgeV  []int32

	verts   []int32 // block vertex arena
	off     []int32 // len = numBlocks+1
	isRoot  []bool
	compOff []int32 // len = numComps+1
	isCut   []bool

	time int32
}

type frame struct {
	u, parent int32
	ei        int32 // next unvisited position in u's neighbor row
	skipped   bool  // the one tree edge back to parent was skipped
}

func (s *scanner) numBlocks() int { return len(s.off) - 1 }

func (s *scanner) block(b int) []int32 { return s.verts[s.off[b]:s.off[b+1]] }

func (s *scanner) numComps() int { return len(s.compOff) - 1 }

// comp returns component c's block range [lo, hi).
func (s *scanner) comp(c int) (lo, hi int) {
	return int(s.compOff[c]), int(s.compOff[c+1])
}

// run computes the decomposition of c. Every call starts from clean
// scratch, sized from c's dimensions into the arrays s already holds.
// The capacity bounds: a DFS path holds at most n frames; each
// undirected edge enters the edge stack once; every block of e_B edges
// lists at most e_B+1 vertices and singletons list one, so the arena
// needs at most 2E+n slots and there are at most E+n blocks.
//
// Once the scratch has grown it allocates nothing (TestBCCScanAllocFree).
func (s *scanner) run(c *pbqp.CSR) {
	n, e := c.Len(), c.NumEdges()
	s.csr = c
	s.disc = slices.Grow(s.disc[:0], n)[:n]
	s.low = slices.Grow(s.low[:0], n)[:n]
	s.stamp = slices.Grow(s.stamp[:0], n)[:n]
	s.isCut = slices.Grow(s.isCut[:0], n)[:n]
	for i := 0; i < n; i++ {
		s.disc[i] = -1
		s.stamp[i] = -1
		s.isCut[i] = false
	}
	s.frames = slices.Grow(s.frames[:0], n+1)
	s.edgeU = slices.Grow(s.edgeU[:0], e)
	s.edgeV = slices.Grow(s.edgeV[:0], e)
	s.verts = slices.Grow(s.verts[:0], 2*e+n)
	s.off = append(slices.Grow(s.off[:0], e+n+1), 0)
	s.isRoot = slices.Grow(s.isRoot[:0], e+n)
	s.compOff = append(slices.Grow(s.compOff[:0], n+1), 0)
	s.time = 0
	for r := int32(0); int(r) < n; r++ {
		if s.disc[r] != -1 {
			continue
		}
		first := len(s.isRoot)
		if s.csr.Degree(int(r)) == 0 {
			s.disc[r], s.low[r] = s.time, s.time
			s.time++
			s.verts = append(s.verts, r)
			s.off = append(s.off, int32(len(s.verts)))
			s.isRoot = append(s.isRoot, true)
		} else {
			s.dfs(r)
			last := len(s.isRoot) - 1
			s.isRoot[last] = true
			// The DFS root is a cut vertex iff it anchors at least two
			// blocks: two tree children in one biconnected block would
			// have found each other without passing through r.
			rootBlocks := 0
			for b := first; b <= last; b++ {
				if s.verts[s.off[b]] == r {
					rootBlocks++
				}
			}
			if rootBlocks >= 2 {
				s.isCut[r] = true
			}
		}
		s.compOff = append(s.compOff, int32(len(s.isRoot)))
	}
}

// dfs explores r's component iteratively, emitting a block every time
// a subtree cannot reach above its attachment point (low[child] ≥
// disc[parent]).
func (s *scanner) dfs(r int32) {
	s.disc[r], s.low[r] = s.time, s.time
	s.time++
	s.frames = s.frames[:0]
	s.frames = append(s.frames, frame{u: r, parent: -1})
	// No context poll: each vertex is pushed once and each edge advances ei once, so the loop runs O(V+E) with no solver calls; deadlines are enforced in the per-block solves
	for len(s.frames) > 0 {
		f := &s.frames[len(s.frames)-1]
		u := f.u
		row := s.csr.Neighbors(int(u))
		if int(f.ei) < len(row) {
			v := row[f.ei]
			f.ei++
			if v == f.parent && !f.skipped {
				// Skip exactly one traversal of the tree edge back to
				// the parent; pbqp graphs have no parallel edges, so
				// a second occurrence cannot exist.
				f.skipped = true
				continue
			}
			if s.disc[v] == -1 {
				s.edgeU = append(s.edgeU, u)
				s.edgeV = append(s.edgeV, v)
				s.disc[v], s.low[v] = s.time, s.time
				s.time++
				s.frames = append(s.frames, frame{u: v, parent: u})
			} else if s.disc[v] < s.disc[u] {
				s.edgeU = append(s.edgeU, u)
				s.edgeV = append(s.edgeV, v)
				if s.disc[v] < s.low[u] {
					s.low[u] = s.disc[v]
				}
			}
			continue
		}
		s.frames = s.frames[:len(s.frames)-1]
		p := f.parent
		if p < 0 {
			break
		}
		if s.low[u] < s.low[p] {
			s.low[p] = s.low[u]
		}
		if s.low[u] >= s.disc[p] {
			s.emitBlock(p, u)
			if p != r {
				s.isCut[p] = true
			}
		}
	}
}

// emitBlock pops the edge stack down to and including tree edge (p, u)
// and records the touched vertices as one block anchored at p.
func (s *scanner) emitBlock(p, u int32) {
	b := int32(len(s.isRoot))
	s.verts = append(s.verts, p)
	s.stamp[p] = b
	// No context poll: the loop pops the edge stack, which dfs grows by at most one entry per graph edge, and the sentinel tree edge (p,u) is always present
	for {
		top := len(s.edgeU) - 1
		eu, ev := s.edgeU[top], s.edgeV[top]
		s.edgeU = s.edgeU[:top]
		s.edgeV = s.edgeV[:top]
		if s.stamp[eu] != b {
			s.stamp[eu] = b
			s.verts = append(s.verts, eu)
		}
		if s.stamp[ev] != b {
			s.stamp[ev] = b
			s.verts = append(s.verts, ev)
		}
		if eu == p && ev == u {
			break
		}
	}
	s.off = append(s.off, int32(len(s.verts)))
	s.isRoot = append(s.isRoot, false)
}
