package gcn

// The packed edge-matrix kernels both passes fold, and read-only GCN
// inference. Infer embeds a view exactly like Forward but through a
// caller-owned memo of whole rows — two maps, h⁰ rows by cost-vector
// content and layer rows by their inputs' ids, behind a game table's
// per-vertex slots — without touching Forward's tape. Its contract is
// bit-identity: every hidden element is produced by the same
// floating-point operations, in the same order, as Forward; a row the
// memo does not hold is computed by the very fold Forward runs.
//
// Two IEEE-754 facts make the kernel specializations exact rather than
// approximate:
//
//   - Zero skipping. Every accumulator below starts at +0.0 and
//     round-to-nearest addition can never turn it into -0.0 (x + (-x)
//     rounds to +0.0, and +0.0 + ±0.0 = +0.0), so adding a term that
//     is exactly ±0.0 never changes the accumulator's bits. Terms
//     whose multiplicand is exactly zero can therefore be skipped.
//     Zero/infinity graphs — the paper's training regime — squash to
//     matrices that are mostly exact zeros, which is where the edge
//     kernels win their time back.
//
//   - Power-of-two factoring. The infinity stand-in infFeature is 2.0,
//     so a "binary" matrix row adds Σ 2·h[j] = 2·Σ h[j]:
//     multiplication by a power of two is exact and commutes with
//     rounding, making the factored sum bit-identical to the unfactored
//     fold.
//
// The kinds, from cheapest to most general, are zero, diagonal, binary,
// sparse and dense (the constants below). The diagonal — infFeature on
// the whole diagonal, the paper's interference constraint and nearly
// every ATE edge — folds as dst[i] += 2·x[i]: the binary fold of a
// one-entry row without the +0.0 its row sum starts from. 2·(+0.0 +
// x[i]) and 2·x[i] differ only for x[i] = -0.0, and adding either into
// an accumulator that is not -0.0 leaves the same bits; every call
// site's accumulator starts at +0.0, so by the first fact it never is.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"pbqprl/internal/cost"
	"pbqprl/internal/tensor"
)

// packedMat kinds, from cheapest to most general.
const (
	kZero   = iota // every entry exactly 0: the edge adds nothing
	kDiag          // infFeature on the whole diagonal, 0 elsewhere: one vector add
	kBinary        // entries ∈ {0, infFeature}: factored index sums
	kSparse        // mostly zero: (index, value) pairs in row-major order
	kDense         // dense fallback: plain row folds
)

// packedMat is the prepared form of one transformed edge matrix: its
// kind and, for the packed kinds, its nonzero structure. Immutable once
// built (transformed matrices never change): a game's edge table packs
// each distinct matrix once (EdgeTable.AddEdge), its edges share the
// form and its id, and Infer, Forward and Backward over the game, its
// snapshots and their decoded copies fold that form.
type packedMat struct {
	kind     int
	id       uint64 // what a row-memo key names the matrix by
	mat      *tensor.Mat
	rowStart []int32 // len R+1; nonzero ranges per row (kBinary, kSparse)
	idx      []int32 // column indices, ascending within each row
	val      []float64
}

// kernelIDs numbers the packed matrices of the process. A table, and so
// its kernels, is shared by every Scratch that evaluates its game (and
// games are built on many goroutines), so the ids that name a matrix in
// a row-memo key cannot come from any one Scratch's counter.
var kernelIDs atomic.Uint64

// buildKernel classifies m, packs its nonzero structure and draws its
// never-reused id.
func buildKernel(m *tensor.Mat) *packedMat {
	nz := 0
	binary := true
	for _, w := range m.W {
		if w != 0 {
			nz++
			// infFeature is assigned, never computed, so != identifies it.
			if w != infFeature {
				binary = false
			}
		}
	}
	k := &packedMat{mat: m, id: kernelIDs.Add(1)}
	switch {
	case nz == 0:
		k.kind = kZero
		return k
	case binary && nz == m.R && m.R == m.C && fullDiagonal(m):
		k.kind = kDiag
		return k
	case nz*5 > len(m.W)*3:
		// denser than 60 %: the packed form saves nothing
		k.kind = kDense
		return k
	case binary:
		k.kind = kBinary
	default:
		k.kind = kSparse
	}
	ints := make([]int32, m.R+1+nz) // one allocation for both index slices
	k.rowStart, k.idx = ints[:m.R+1:m.R+1], ints[m.R+1:m.R+1]
	if k.kind == kSparse {
		k.val = make([]float64, 0, nz)
	}
	for i := 0; i < m.R; i++ {
		k.rowStart[i] = int32(len(k.idx))
		row := m.W[i*m.C : (i+1)*m.C]
		for j, w := range row {
			if w != 0 {
				k.idx = append(k.idx, int32(j))
				if k.kind == kSparse {
					k.val = append(k.val, w)
				}
			}
		}
	}
	k.rowStart[m.R] = int32(len(k.idx))
	return k
}

// fullDiagonal reports whether every diagonal entry of the square m is
// nonzero.
func fullDiagonal(m *tensor.Mat) bool {
	for i := 0; i < m.R; i++ {
		if m.W[i*m.C+i] == 0 {
			return false
		}
	}
	return true
}

// addMulVec adds k.mat · x into dst, bit-identically to
// (*tensor.Mat).AddMulVec into a dst none of whose entries is -0.0.
func (k *packedMat) addMulVec(dst, x tensor.Vec) {
	switch k.kind {
	case kZero:
		// Σ ±0.0 into a +0.0-started accumulator is a no-op
		return
	case kDiag:
		// 2·x[i], not 2·(+0.0 + x[i]): the same bits in a dst that is not -0.0
		x = x[:len(dst)]
		for i, xi := range x {
			dst[i] += 2 * xi
		}
	case kBinary:
		rs, idx := k.rowStart, k.idx
		for i := range dst {
			lo, hi := rs[i], rs[i+1]
			if lo == hi {
				continue
			}
			s := 0.0
			for _, j := range idx[lo:hi] {
				s += x[j]
			}
			dst[i] += 2 * s
		}
	case kSparse:
		rs, idx, val := k.rowStart, k.idx, k.val
		for i := range dst {
			lo, hi := rs[i], rs[i+1]
			if lo == hi {
				continue
			}
			s := 0.0
			for p := lo; p < hi; p++ {
				s += val[p] * x[idx[p]]
			}
			dst[i] += s
		}
	default: // kDense
		m := k.mat
		for i := range dst {
			row := m.W[i*m.C : (i+1)*m.C]
			s := 0.0
			for j, xj := range x {
				s += row[j] * xj
			}
			dst[i] += s
		}
	}
}

// EdgeTable is the directed-edge table of one game in CSR form: every
// vertex's neighbors and transformed edge matrices, fixed when the
// game is built. Colored vertices only ever leave from the front of
// the coloring order, so each state of the game is the window of
// vertices [off, n) onto the one table, and what Infer works out per
// vertex lives in the table, where the next evaluation of the same game
// finds it without building a key or probing a map.
//
// Every edge enters a table through AddEdge, which packs its matrix:
// Nbr, Mat and the packed forms stay parallel, and the passes reject a
// table assembled any other way. What AddEdge builds is immutable, so a
// snapshot (View.Freeze) shares it.
type EdgeTable struct {
	Start []int32       // len n+1: vertex u owns edges [Start[u], Start[u+1])
	Nbr   []int32       // neighbor of each edge, ascending within a vertex
	Mat   []*tensor.Mat // transformed matrix of each edge, rows = the owner's color

	packed []*packedMat               // Mat's packed forms, edge for edge
	kern   map[*tensor.Mat]*packedMat // the packed form of each matrix AddEdge has seen

	// The slots below are owner's, filled while its generation was gen,
	// by Infer over a live view; they make a table's live window, like
	// the game it belongs to, single-goroutine. Frozen views leave them
	// alone.
	// They hold, per vertex, the inputs of the last evaluation and the
	// rows that came out: the cost vector with its h⁰ row, and per layer
	// the update's inputs with its output row. Successive leaves of a
	// search differ in a handful of vertices, so most slots answer by
	// comparing a few words. A slot pins its rows and names its inputs by
	// never-reused ids, so it stays right when a memo map is evicted
	// under it; only another owner or changed weights (adopt) empty it.
	owner *Scratch
	gen   uint64
	vecs  cost.Vector // n·m: the cost vector each vertex was last seen with ...
	h0    []rowRef    // ... and its h⁰ row (id 0 = never seen)
	lay   []layerSlots
}

// AddEdge appends an edge to nbr, with transformed matrix mat, to the
// vertex under construction (the caller closes it by appending to
// Start) and packs mat: the one place a matrix is classified. A matrix
// the table has packed before keeps its packed form and kernel id, so
// a caller that hands every edge of one content the same *tensor.Mat
// (game.New does) packs each content once.
func (t *EdgeTable) AddEdge(nbr int, mat *tensor.Mat) {
	k := t.kern[mat]
	if k == nil {
		k = buildKernel(mat)
		if t.kern == nil {
			t.kern = make(map[*tensor.Mat]*packedMat)
		}
		t.kern[mat] = k
	}
	t.Nbr = append(t.Nbr, int32(nbr))
	t.Mat = append(t.Mat, mat)
	t.packed = append(t.packed, k)
}

// layerSlots is one layer's slot per table vertex: the inputs of the
// last update computed for the vertex and the row it produced.
type layerSlots struct {
	lo   []int32  // first edge inside the window
	self []uint64 // id of the vertex's own input row (0 = empty)
	nbr  []uint64 // per edge from lo on: id of the neighbor's input row
	out  []rowRef
}

// From returns the range of u's edges whose neighbor is ≥ off.
func (t *EdgeTable) From(u, off int) (lo, hi int32) {
	lo, hi = t.Start[u], t.Start[u+1]
	for lo < hi && int(t.Nbr[lo]) < off {
		lo++
	}
	return lo, hi
}

// edges resolves the directed edges of view for Infer and Forward
// alike: the window's table, which must have packed every matrix.
func edges(view View) (tbl *EdgeTable, off int) {
	tbl, off = view.tbl, view.off
	if len(tbl.packed) != len(tbl.Mat) {
		panic(fmt.Sprintf("gcn: EdgeTable holds %d matrices but %d packed forms: every edge must enter a table through AddEdge", len(tbl.Mat), len(tbl.packed)))
	}
	return tbl, off
}

// adopt points the slots at sc, emptying them if they were filled from
// another Scratch or before sc was last told its network's weights
// changed.
func (t *EdgeTable) adopt(sc *Scratch, m, layers int) {
	if t.owner == sc && t.gen == sc.gen {
		return
	}
	n := len(t.Start) - 1
	t.owner, t.gen = sc, sc.gen
	t.vecs = make(cost.Vector, n*m)
	t.h0 = make([]rowRef, n)
	t.lay = make([]layerSlots, layers)
	for l := range t.lay {
		t.lay[l] = layerSlots{
			lo: make([]int32, n), self: make([]uint64, n),
			nbr: make([]uint64, len(t.Nbr)), out: make([]rowRef, n),
		}
	}
}

// Memo bounds: h⁰ and row entries accumulate across a search. Each map
// resets wholesale when it grows past its limit — resets cost
// recomputation, never correctness, because a key is either a row's
// whole content or names its referents by never-reused ids (see the
// memoization comment on Infer).
type memoLimits struct{ h0, rows int }

var defaultLimits = memoLimits{h0: 4096, rows: 16384}

// rowRef is a canonical cached row plus its identity: ids are drawn
// from a per-Scratch counter that never decreases and is never reused,
// so an id names one row's bits forever — a cache entry keyed by a
// stale id (its row evicted and recomputed under a fresh id) simply
// never hits again. That makes id-composed keys safe without any
// pinning or invalidation argument.
type rowRef struct {
	vec tensor.Vec
	id  uint64
}

// Scratch holds the reusable state of one Infer caller: a layer's input
// and output rows and the two memo maps.
// A Scratch must not be shared between goroutines, and it belongs to
// one network: after the network's weights change the owner must call
// InvalidateWeights (net.PBQPNet does this on its training-mode and
// weight-loading transitions).
type Scratch struct {
	feat   tensor.Vec // one vertex's 2m-feature buffer
	featNZ []int32    // ascending nonzero feature indices
	mrow   tensor.Vec // one vertex's message buffer
	layer  [2]rowSet  // a layer's input rows and its output rows, in turn

	lim    memoLimits
	gen    uint64            // bumped by InvalidateWeights; see EdgeTable
	h0     map[string]rowRef // cost vector bytes → h⁰ row
	rows   map[string]rowRef // (layer, own row id, (kernel id, neighbor row id)…) → update output
	nextID uint64
	key    []byte // key buffer (h0, rows)
}

// rowSet is one layer's rows, one per active vertex, and their ids.
type rowSet struct {
	vec []tensor.Vec
	id  []uint64
}

// newID returns a fresh never-reused row identity.
func (sc *Scratch) newID() uint64 {
	sc.nextID++
	return sc.nextID
}

// InvalidateWeights drops everything derived from network weights: the
// h⁰ rows, the layer-update rows, and (by starting a new generation)
// every edge table's slots.
func (sc *Scratch) InvalidateWeights() {
	clear(sc.h0)
	clear(sc.rows)
	sc.gen++
}

// LimitMemosForTest bounds both memo maps of sc at n entries, so that
// a test's walk evicts each of them many times over. Test-only.
func (sc *Scratch) LimitMemosForTest(n int) {
	sc.lim = memoLimits{h0: n, rows: n}
}

// grow returns buf, or a longer buffer, with length n and any contents.
func grow(buf tensor.Vec, n int) tensor.Vec {
	if cap(buf) < n {
		// scratch growth on first sight of a larger view; steady state reuses the buffers
		return make(tensor.Vec, n)
	}
	return buf[:n]
}

// ensure sizes the buffers for an n-vertex, m-color view.
func (sc *Scratch) ensure(m, n int) {
	sc.feat, sc.mrow = grow(sc.feat, 2*m), grow(sc.mrow, m)
	if cap(sc.featNZ) < 2*m {
		sc.featNZ = make([]int32, 0, 2*m)
		sc.key = make([]byte, 0, 8*m)
	}
	for i := range sc.layer {
		rs := &sc.layer[i]
		if cap(rs.id) < n {
			*rs = rowSet{make([]tensor.Vec, n), make([]uint64, n)}
		}
		*rs = rowSet{rs.vec[:n], rs.id[:n]}
	}
	if sc.h0 == nil {
		sc.h0 = make(map[string]rowRef)
		sc.rows = make(map[string]rowRef)
		if sc.lim == (memoLimits{}) {
			sc.lim = defaultLimits
		}
	}
}

// checkVec rejects a cost vector that is not m long with the message
// of the dense W_in·φ product over its 2·len(vec) features.
func checkVec(vec cost.Vector, m int) {
	if len(vec) != m {
		panic(fmt.Sprintf("tensor: dimension mismatch: want %d, got %d", 2*m, 2*len(vec)))
	}
}

// checkShape rejects an edge matrix that is not m×m with the dense
// AddMulVec's messages, columns first — a packed kernel would read out
// of bounds or, worse, succeed (a zero kernel has no bounds to trip).
func checkShape(mat *tensor.Mat, m int) {
	if mat.C != m {
		panic(fmt.Sprintf("tensor: dimension mismatch: want %d, got %d", mat.C, m))
	}
	if mat.R != m {
		panic(fmt.Sprintf("tensor: dimension mismatch: want %d, got %d", mat.R, m))
	}
}

// Infer embeds every active vertex of view, bit-identically to Forward
// but read-only and through sc's memo. The returned vectors alias the
// memo's rows and stay valid until the next Infer on the same Scratch;
// callers consume them (net pools them into a fixed vector) before
// re-entering, and must never write into them.
//
// Infer memoizes whole rows, in two maps. Every hidden row a layer
// consumes is a stable vector with a never-reused id — h⁰ rows come
// from the h0 map, keyed by the cost vector's bytes, so equal vectors
// on different vertices share one row and one id; later rows from the
// row memo — and every packed matrix has a never-reused id of its own,
// so a layer with a vertex's own row id and its (kernel id, row id)
// edge list names the vertex's whole update — per-edge mat·vec adds,
// the mean (its divisor is the list's length) and the tanh layer —
// computed once, by the fold Forward runs, and replayed by one key
// build and one map probe, for a live game, its snapshots and their
// decoded copies alike. Where the view is live (not frozen), the
// table's per-vertex slots sit in front of both maps: a vertex
// whose cost vector, or whose own and neighbor row ids, are what they
// were at the last evaluation of the game takes its row from the slot
// and touches no map at all. Replaying a memoized row is exact, not
// approximate: it was produced by the identical floating-point fold,
// and substituting a row for another with identical bits cannot change
// any downstream operation. Id-composed keys can only go stale towards
// misses (ids are never reused), so evicting either map merely forces
// recomputation.
//
// Once sc is warm it allocates nothing (TestInferAllocFree).
func (g *GCN) Infer(view View, sc *Scratch) []tensor.Vec {
	n := view.N()
	m := g.m
	sc.ensure(m, n)

	// A live view's table takes sc's slots. A frozen view is one of many
	// onto its table, read on any goroutine: it goes to the maps and
	// reads no slot.
	tbl, off := edges(view)
	live := !view.frozen
	if live {
		tbl.adopt(sc, m, g.layers)
	}

	cur, nxt := &sc.layer[0], &sc.layer[1]
	for v := 0; v < n; v++ {
		r := sc.h0Row(g, view.Vec(v), tbl, off+v, live)
		cur.vec[v], cur.id[v] = r.vec, r.id
	}
	for l := 0; l < g.layers; l++ {
		for v := 0; v < n; v++ {
			r := sc.layerRow(g, l, tbl, off, v, cur, live)
			nxt.vec[v], nxt.id[v] = r.vec, r.id
		}
		cur, nxt = nxt, cur
	}
	return cur.vec
}

// layerRow returns layer l's output row for active vertex v of the
// window of tbl at off, given the layer's input rows cur: from the
// vertex's slot (live windows only) if its inputs are the slot's, else
// from the row memo, else computed by update, the fold ForwardTape
// runs, and memoized.
func (sc *Scratch) layerRow(g *GCN, l int, tbl *EdgeTable, off, v int, cur *rowSet, live bool) rowRef {
	u, self := off+v, cur.id[v]
	lo, hi := tbl.From(u, off)
	var slot *layerSlots
	if live {
		slot = &tbl.lay[l]
		if slot.self[u] == self && slot.lo[u] == lo {
			e := lo
			for e < hi && slot.nbr[e] == cur.id[int(tbl.Nbr[e])-off] {
				e++
			}
			if e == hi {
				return slot.out[u]
			}
		}
	}
	// The key determines the whole update, including the mean's divisor
	// (the edge list's length). Edgeless vertices, exactly like Forward,
	// get an unscaled all-zero message.
	key := append(sc.key[:0], byte(l))
	key = binary.LittleEndian.AppendUint64(key, self)
	for e := lo; e < hi; e++ {
		id := cur.id[int(tbl.Nbr[e])-off]
		if slot != nil {
			slot.nbr[e] = id
		}
		key = binary.LittleEndian.AppendUint64(key, tbl.packed[e].id)
		key = binary.LittleEndian.AppendUint64(key, id)
	}
	sc.key = key
	out, ok := sc.rows[string(key)]
	if !ok {
		// row memo fill on first sight of a (layer, row, edge list) key; later evaluations hit the memo
		o := make(tensor.Vec, g.m)
		g.update(o, sc.mrow, l, tbl, off, v, cur.vec)
		if len(sc.rows) >= sc.lim.rows {
			clear(sc.rows)
		}
		out = rowRef{vec: o, id: sc.newID()}
		sc.rows[string(key)] = out
	}
	if slot != nil {
		slot.lo[u], slot.self[u], slot.out[u] = lo, self, out
	}
	return out
}

// h0Row returns the canonical h⁰ row for table vertex u carrying vec:
// from the vertex's slot (live windows only) if vec is what the slot
// last saw, else from the h0 map, computing and caching it on first
// sight of the vector's contents.
func (sc *Scratch) h0Row(g *GCN, vec cost.Vector, tbl *EdgeTable, u int, live bool) rowRef {
	m := g.m
	checkVec(vec, m)
	var seen cost.Vector
	if live {
		seen = tbl.vecs[u*m : (u+1)*m]
		i := 0
		for i < m && math.Float64bits(float64(seen[i])) == math.Float64bits(float64(vec[i])) {
			i++
		}
		if i == m && tbl.h0[u].id != 0 {
			return tbl.h0[u]
		}
	}
	sc.key = sc.key[:0]
	for _, c := range vec {
		sc.key = binary.LittleEndian.AppendUint64(sc.key, math.Float64bits(float64(c)))
	}
	r, ok := sc.h0[string(sc.key)]
	if !ok {
		r = sc.h0Compute(g, vec)
	}
	if seen != nil {
		copy(seen, vec)
		tbl.h0[u] = r
	}
	return r
}

// h0Compute computes the h⁰ row of a vector the h0 map has not seen
// and caches it under the content key sc.key holds.
func (sc *Scratch) h0Compute(g *GCN, vec cost.Vector) rowRef {
	// h⁰ cache fill on first sight of a cost vector; later evaluations of the same vector hit the cache
	dst := make(tensor.Vec, g.m)
	sc.featNZ = g.h0Into(dst, sc.feat, sc.featNZ[:0], vec)
	if len(sc.h0) >= sc.lim.h0 {
		clear(sc.h0)
	}
	r := rowRef{vec: dst, id: sc.newID()}
	sc.h0[string(sc.key)] = r
	return r
}

// h0Into writes h⁰ = tanh(W_in·φ + b_in) of the cost vector vec into
// dst and φ — the squashed finite channel, then the infinity mask —
// into feat. It records φ's nonzero indices, ascending, in nz (which it
// returns), so the fold skips only what the dense product adds as ±0.
func (g *GCN) h0Into(dst, feat tensor.Vec, nz []int32, vec cost.Vector) []int32 {
	m := g.m
	checkVec(vec, m)
	feat.Zero()
	for i, c := range vec {
		s := squash(c)
		if s != 0 {
			feat[i] = s
			nz = append(nz, int32(i))
		}
	}
	for i, c := range vec {
		if c.IsInf() {
			feat[m+i] = 1
			nz = append(nz, int32(m+i))
		}
	}
	win, bin := g.win.W, g.bin.W
	for i := range dst {
		row := win[i*2*m : (i+1)*2*m]
		s := 0.0
		for _, j := range nz {
			s += row[j] * feat[j]
		}
		dst[i] = math.Tanh(s + bin[i])
	}
	return nz
}
