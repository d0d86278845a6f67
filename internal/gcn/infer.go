package gcn

// The packed edge-matrix kernels both passes fold, and read-only GCN
// inference. Infer embeds a view exactly like Forward but through a
// caller-owned memo, without touching Forward's tape. Its contract is
// bit-identity: every hidden element is produced by the same
// floating-point operations, in the same order, as Forward.
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
//     so a "binary" matrix row contributes Σ 2·h[j] = 2·Σ h[j]:
//     multiplication by a power of two is exact and commutes with
//     rounding, making the factored sum bit-identical to the unfactored
//     fold.

import (
	"encoding/binary"
	"fmt"
	"math"

	"pbqprl/internal/cost"
	"pbqprl/internal/tensor"
)

// matKernel kinds, from cheapest to most general.
const (
	kZero   = iota // every entry exactly 0: the edge contributes nothing
	kBinary        // entries ∈ {0, infFeature}: factored index sums
	kSparse        // mostly zero: (index, value) pairs in row-major order
	kDense         // dense fallback: plain row folds
)

// packedMat is the prepared form of one transformed edge matrix: its
// kind and, for the packed kinds, its nonzero structure. Immutable once
// built (transformed matrices never change): a game's edge table packs
// each matrix once (EdgeTable.AddEdge), and Infer, Forward and Backward
// over the game, its snapshots and their decoded copies fold that form.
type packedMat struct {
	kind     int
	mat      *tensor.Mat
	rowStart []int32 // len R+1; nonzero ranges per row (kBinary, kSparse)
	idx      []int32 // column indices, ascending within each row
	val      []float64
}

// matKernel is one Scratch's half of a kernel: the identity its memo
// keys name the matrix by, and the contributions it has computed.
type matKernel struct {
	*packedMat
	id uint64 // never-reused identity for msg-cache keys
	// contrib caches mat · row per canonical row, keyed by the row's
	// base pointer (the key pins the row, so it can never be read
	// against recycled memory). Living on the kernel keeps the key a
	// single word — the map stays on the fast pointer-hash path.
	contrib map[*float64]tensor.Vec
}

// buildKernel classifies m and packs its nonzero structure.
func buildKernel(m *tensor.Mat) *packedMat {
	nz := 0
	binary := true
	for _, w := range m.W {
		//pbqpvet:ignore floatcmp exact-zero skipping is the kernel's contract; see the package comment on zero skipping
		if w != 0 {
			nz++
			//pbqpvet:ignore floatcmp infFeature is assigned, never computed, so the exact comparison identifies it
			if w != infFeature {
				binary = false
			}
		}
	}
	k := &packedMat{mat: m}
	switch {
	case nz == 0:
		k.kind = kZero
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
			//pbqpvet:ignore floatcmp exact-zero skipping is the kernel's contract; see the package comment on zero skipping
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

// addMulVec adds k.mat · x into dst, bit-identically to
// (*tensor.Mat).AddMulVec.
func (k *packedMat) addMulVec(dst, x tensor.Vec) {
	switch k.kind {
	case kZero:
		// Σ ±0.0 into a +0.0-started accumulator is a no-op
		return
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
// edge and per vertex lives in the table, where the next evaluation of
// the same game finds it without building a key or probing a map.
// What AddEdge builds is immutable, so a snapshot's table shares it.
type EdgeTable struct {
	Start []int32       // len n+1: vertex u owns edges [Start[u], Start[u+1])
	Nbr   []int32       // neighbor of each edge, ascending within a vertex
	Mat   []*tensor.Mat // transformed matrix of each edge, rows = the owner's color

	packed []*packedMat // Mat's packed forms, where AddEdge built the table; else nil
	frozen bool         // a snapshot's table, one of many onto its game's slices: it takes no memo

	// The memo below is owner's, filled while its generation was gen; it
	// makes a table, like the game it belongs to, single-goroutine.
	// kern[e] is owner's kernel over edge e. The slots hold, per vertex, the
	// inputs of the last evaluation and the rows that came out: the cost
	// vector with its h⁰ row, and per layer the update's inputs with its
	// output row. Successive leaves of a search differ in a handful of
	// vertices, so most slots answer by comparing a few words. A slot
	// pins its rows and names its inputs by never-reused ids, so it
	// stays right when a memo map is evicted under it; only another
	// owner, dropped kernels or changed weights (adopt) empty it.
	owner *Scratch
	gen   uint64
	kern  []*matKernel
	vecs  cost.Vector // n·m: the cost vector each vertex was last seen with ...
	h0    []rowRef    // ... and its h⁰ row (id 0 = never seen)
	lay   []layerSlots
}

// AddEdge appends an edge to nbr, with transformed matrix mat, to the
// vertex under construction (the caller closes it by appending to
// Start) and packs mat: the one place a table's matrix is classified.
func (t *EdgeTable) AddEdge(nbr int, mat *tensor.Mat) {
	t.Nbr = append(t.Nbr, int32(nbr))
	t.Mat = append(t.Mat, mat)
	t.packed = append(t.packed, buildKernel(mat))
}

// layerSlots is one layer's slot per table vertex: the inputs of the
// last update computed for the vertex and the row it produced.
type layerSlots struct {
	lo   []int32  // first edge inside the window
	self []uint64 // id of the vertex's own input row (0 = empty)
	nbr  []uint64 // per edge from lo on: id of the neighbor's input row
	out  []rowRef
}

// TableView is a View that is the window [off, n) onto an EdgeTable:
// active vertex i is table vertex off+i, and its neighbors are the
// table's that are ≥ off, in table order.
type TableView interface {
	View
	EdgeTable() (tbl *EdgeTable, off int)
}

// From returns the range of u's edges whose neighbor is ≥ off.
func (t *EdgeTable) From(u, off int) (lo, hi int32) {
	lo, hi = t.Start[u], t.Start[u+1]
	for lo < hi && int(t.Nbr[lo]) < off {
		lo++
	}
	return lo, hi
}

// edges resolves the directed edges of view for Infer and Forward alike:
// a window onto an edge table brings them resolved; any other view is
// flattened into flat through Nbrs and Mat, once per call.
func edges(view View, flat *EdgeTable) (tbl *EdgeTable, off int) {
	if tv, ok := view.(TableView); ok {
		return tv.EdgeTable()
	}
	flat.Start, flat.Nbr, flat.Mat = flat.Start[:0], flat.Nbr[:0], flat.Mat[:0]
	for v, n := 0, view.N(); v < n; v++ {
		flat.Start = append(flat.Start, int32(len(flat.Nbr)))
		for _, u := range view.Nbrs(v) {
			flat.Nbr = append(flat.Nbr, int32(u))
			flat.Mat = append(flat.Mat, view.Mat(v, u))
		}
	}
	flat.Start = append(flat.Start, int32(len(flat.Nbr)))
	return flat, 0
}

// adopt points the memo at sc, emptying it if it was filled from
// another Scratch or before sc last dropped its kernels or was told its
// network's weights changed.
func (t *EdgeTable) adopt(sc *Scratch, m, layers int) {
	if t.owner == sc && t.gen == sc.gen {
		return
	}
	n := len(t.Start) - 1
	t.owner, t.gen = sc, sc.gen
	t.kern = make([]*matKernel, len(t.Mat))
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

// Cache bounds: kernels accumulate across episodes (graphs come and
// go); h⁰, contribution, and row entries accumulate across a search.
// Each map resets wholesale when it grows past its limit — resets cost
// recomputation, never correctness, because every cache key pins its
// referents or names them by never-reused ids (see the memoization
// comment on Infer).
type memoLimits struct{ kernels, h0, contrib, rows int }

var defaultLimits = memoLimits{kernels: 8192, h0: 4096, contrib: 32768, rows: 16384}

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

// Scratch holds the reusable state of one Infer caller: the flattened
// adjacency of a view that brings no edge table, the kernel cache for
// edges outside a table whose memo it owns, and the content-addressed
// memoization maps. A Scratch must not be shared between goroutines,
// and it belongs to one network: after the network's weights change the
// owner must call InvalidateWeights (net.PBQPNet does this on its
// training-mode and weight-loading transitions).
type Scratch struct {
	feat    tensor.Vec // one vertex's 2m-feature buffer
	featNZ  []int32    // ascending nonzero feature indices
	mrow    tensor.Vec // one vertex's message buffer
	rowsA   []rowRef
	rowsB   []rowRef
	rowsOut []tensor.Vec // Infer's return slice, aliasing cached rows

	flat EdgeTable // Start, Nbr, Mat of the current view when it is no TableView; kern of any view whose table takes no memo

	lim          memoLimits
	kern         map[*tensor.Mat]*matKernel
	gen          uint64 // bumped by dropKernels and InvalidateWeights; see EdgeTable
	h0           map[string]rowRef
	rows         map[string]rowRef // (layer, own row id, (kernel id, neighbor row id)…) → update output
	contribCount int               // total entries across all kernels' contrib maps
	nextID       uint64
	key          []byte // key buffer (h0, rows)
}

// newID returns a fresh never-reused row/kernel identity.
func (sc *Scratch) newID() uint64 {
	sc.nextID++
	return sc.nextID
}

// InvalidateWeights drops everything derived from network weights: the
// h⁰ rows, the layer-update rows, and (by starting a new generation)
// every edge table's slots. Kernels and edge contributions survive —
// they depend only on the (immutable) edge matrices and on row
// contents, not on weights.
func (sc *Scratch) InvalidateWeights() {
	clear(sc.h0)
	clear(sc.rows)
	sc.gen++
}

// LimitMemosForTest bounds every memo map of sc at n entries, so that
// a test's walk evicts each of them many times over. Test-only.
func (sc *Scratch) LimitMemosForTest(n int) {
	sc.lim = memoLimits{kernels: n, h0: n, contrib: n, rows: n}
}

// grow returns buf, or a longer buffer, with length n and any contents.
func grow(buf tensor.Vec, n int) tensor.Vec {
	if cap(buf) < n {
		//pbqpvet:ignore hotalloc scratch growth on first sight of a larger view; steady state reuses the buffers
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
	if cap(sc.rowsA) < n {
		sc.rowsA = make([]rowRef, n)
		sc.rowsB = make([]rowRef, n)
		sc.rowsOut = make([]tensor.Vec, n)
	} else {
		sc.rowsA, sc.rowsB = sc.rowsA[:n], sc.rowsB[:n]
		sc.rowsOut = sc.rowsOut[:n]
	}
	if sc.kern == nil {
		sc.kern = make(map[*tensor.Mat]*matKernel)
		sc.h0 = make(map[string]rowRef)
		sc.rows = make(map[string]rowRef)
		if sc.lim == (memoLimits{}) {
			sc.lim = defaultLimits
		}
	}
}

// dropKernels empties the kernel cache (and with it every per-kernel
// contribution cache) and starts a new generation, so edge tables
// holding kernels of the old one resolve theirs afresh.
func (sc *Scratch) dropKernels() {
	clear(sc.kern)
	sc.gen++
}

// checkVec rejects a cost vector that is not m long with the message
// of the dense W_in·φ product over its 2·len(vec) features.
func checkVec(vec cost.Vector, m int) {
	if len(vec) != m {
		//pbqpvet:ignore panicfree mirrors (*tensor.Mat).MulVec's shape panic on the scalar path
		panic(fmt.Sprintf("tensor: dimension mismatch: want %d, got %d", 2*m, 2*len(vec)))
	}
}

// checkShape rejects an edge matrix that is not m×m with the dense
// AddMulVec's messages, columns first — a packed kernel would read out
// of bounds or, worse, succeed (a zero kernel has no bounds to trip).
func checkShape(mat *tensor.Mat, m int) {
	if mat.C != m {
		//pbqpvet:ignore panicfree mirrors (*tensor.Mat).AddMulVec's shape panic on the scalar path
		panic(fmt.Sprintf("tensor: dimension mismatch: want %d, got %d", mat.C, m))
	}
	if mat.R != m {
		//pbqpvet:ignore panicfree mirrors (*tensor.Mat).AddMulVec's shape panic on the scalar path
		panic(fmt.Sprintf("tensor: dimension mismatch: want %d, got %d", mat.R, m))
	}
}

// kernel returns sc's kernel over edge e of tbl. In a table whose memo
// sc owns it wraps the table's packed matrix and lives in the table;
// elsewhere it lives in the pointer-keyed cache (the key pins the
// matrix, so a cached pointer is never recycled to another), and only a
// matrix nobody packed is scanned here.
func (sc *Scratch) kernel(tbl *EdgeTable, e int32, m int) *matKernel {
	mat := tbl.Mat[e]
	checkShape(mat, m)
	var pk *packedMat
	if tbl.packed != nil {
		pk = tbl.packed[e]
	}
	if pk != nil && tbl.owner == sc {
		return &matKernel{packedMat: pk, id: sc.newID()}
	}
	if k, ok := sc.kern[mat]; ok {
		return k
	}
	if len(sc.kern) >= sc.lim.kernels {
		sc.dropKernels()
	}
	if pk == nil {
		//pbqpvet:ignore hotalloc kernel build on first sight of an edge matrix; amortized across every later evaluation of its graph
		pk = buildKernel(mat)
	}
	k := &matKernel{packedMat: pk, id: sc.newID()}
	sc.kern[mat] = k
	return k
}

// Infer embeds every active vertex of view, bit-identically to Forward
// but read-only and through sc's caches. The returned vectors alias
// sc's caches and stay valid until the next Infer on the same Scratch;
// callers consume them (net pools them into a fixed vector) before
// re-entering, and must never write into them.
//
// Beyond the sparse kernels, Infer memoizes the whole message pass on
// canonical rows. Every hidden row a layer consumes is a stable cached
// vector with a never-reused id — h⁰ rows come from the
// content-addressed h0 map, later rows from the row memo — so a
// (kernel, row) pair names an edge contribution, and a layer with a
// vertex's own row id and its (kernel id, row id) edge list names the
// vertex's whole update — per-edge mat·vec adds, the mean (its divisor
// is the list's length) and the tanh layer — computed once and
// replayed by one key build and one map probe. Where the view is a
// window onto a game's edge table, the table's per-vertex slots sit in
// front of both maps: a vertex whose cost vector, or whose own and
// neighbor row ids, are what they were at the last evaluation of the
// game takes its row from the slot and touches no map at all.
// Replaying a cached value is exact, not approximate: each cached
// vector was produced by the identical floating-point fold the scalar
// path would run, and substituting a row for another with identical
// bits cannot change any downstream operation. Pointer-keyed maps pin
// their referents, and id-composed keys can only go stale towards
// misses (ids are never reused), so an entry can never be read against
// recycled memory; evicting any one map merely forces recomputation.
//
//pbqpvet:hotpath
func (g *GCN) Infer(view View, sc *Scratch) []tensor.Vec {
	n := view.N()
	m := g.m
	sc.ensure(m, n)

	// A live game's table takes sc's memo, kernels included. A flattened
	// view has no table and a snapshot's is one of many onto its game:
	// their kernels are looked up per call, by matrix pointer.
	tbl, off := edges(view, &sc.flat)
	var kern []*matKernel
	if tbl == &sc.flat || tbl.frozen {
		if cap(sc.flat.kern) < len(tbl.Nbr) {
			sc.flat.kern = make([]*matKernel, len(tbl.Nbr))
		}
		kern = sc.flat.kern[:len(tbl.Nbr)]
		clear(kern)
	} else {
		tbl.adopt(sc, m, g.layers)
		kern = tbl.kern
	}

	// h⁰ = tanh(W_in·φ(v) + b_in), content-cached by cost-vector bytes:
	// across the leaves of one search most vertices carry unchanged
	// vectors, so the squash + mat-vec + tanh runs once per distinct
	// vector instead of once per vertex per evaluation.
	cur, nxt := sc.rowsA, sc.rowsB
	for v := 0; v < n; v++ {
		cur[v] = sc.h0Row(g, view.Vec(v), tbl, off+v)
	}
	for l := 0; l < g.layers; l++ {
		for v := 0; v < n; v++ {
			nxt[v] = sc.layerRow(g, l, tbl, kern, off, v, cur)
		}
		cur, nxt = nxt, cur
	}
	for v := 0; v < n; v++ {
		sc.rowsOut[v] = cur[v].vec
	}
	return sc.rowsOut
}

// layerRow returns layer l's output row for active vertex v of the
// window of tbl at off, given the layer's input rows cur: from the
// vertex's slot if its inputs are the slot's, else from the row memo,
// else computed.
func (sc *Scratch) layerRow(g *GCN, l int, tbl *EdgeTable, kern []*matKernel, off, v int, cur []rowRef) rowRef {
	u, self := off+v, cur[v]
	lo, hi := tbl.From(u, off)
	var slot *layerSlots
	if tbl.lay != nil {
		slot = &tbl.lay[l]
		if slot.self[u] == self.id && slot.lo[u] == lo {
			e := lo
			for e < hi && slot.nbr[e] == cur[int(tbl.Nbr[e])-off].id {
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
	key = binary.LittleEndian.AppendUint64(key, self.id)
	for e := lo; e < hi; e++ {
		if kern[e] == nil {
			kern[e] = sc.kernel(tbl, e, g.m)
		}
		id := cur[int(tbl.Nbr[e])-off].id
		if slot != nil {
			slot.nbr[e] = id
		}
		key = binary.LittleEndian.AppendUint64(key, kern[e].id)
		key = binary.LittleEndian.AppendUint64(key, id)
	}
	sc.key = key
	out, ok := sc.rows[string(key)]
	if !ok {
		out = sc.updateRow(g, l, tbl, kern, off, lo, hi, self.vec, cur)
	}
	if slot != nil {
		slot.lo[u], slot.self[u], slot.out[u] = lo, self.id, out
	}
	return out
}

// h0Row returns the canonical h⁰ row for table vertex u carrying vec:
// from the vertex's slot if vec is what the slot last saw, else from
// the h0 map, computing and caching it on first sight of the vector's
// contents.
func (sc *Scratch) h0Row(g *GCN, vec cost.Vector, tbl *EdgeTable, u int) rowRef {
	m := g.m
	checkVec(vec, m)
	var seen cost.Vector
	if tbl.h0 != nil {
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
	//pbqpvet:ignore hotalloc h⁰ cache fill on first sight of a cost vector; later evaluations of the same vector hit the cache
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
		//pbqpvet:ignore floatcmp exact-zero skipping is the kernel's contract; see the package comment on zero skipping
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

// contribution returns k.mat · x as a cached vector. x must be a
// canonical cached row so its pointer names its contents.
func (sc *Scratch) contribution(k *matKernel, x tensor.Vec) tensor.Vec {
	if c, ok := k.contrib[&x[0]]; ok {
		return c
	}
	if sc.contribCount >= sc.lim.contrib {
		// Dropping the kernel map releases every per-kernel contribution
		// cache at once; kernels rebuild on first sight like any miss.
		sc.dropKernels()
		sc.contribCount = 0
	}
	if k.contrib == nil {
		k.contrib = make(map[*float64]tensor.Vec)
	}
	//pbqpvet:ignore hotalloc contribution cache fill on first sight of a (kernel, row) pair; later message passes hit the cache
	c := make(tensor.Vec, len(x))
	k.addMulVec(c, x)
	k.contrib[&x[0]] = c
	sc.contribCount++
	return c
}

// updateRow computes one vertex's layer output the slow way and caches
// it under the key sc.key holds. The message is the per-edge cached
// contributions of edges [lo, hi) folded in neighbor order, then the
// mean; adding each whole contribution vector equals the kernel's
// selective per-row adds because a skipped row's entry is exactly +0.0
// and the accumulator can never be -0.0 (see the package comment). The
// row is layerInto's, as Forward's is.
func (sc *Scratch) updateRow(g *GCN, l int, tbl *EdgeTable, kern []*matKernel, off int, lo, hi int32, hv tensor.Vec, cur []rowRef) rowRef {
	m, mv := g.m, sc.mrow
	mv.Zero()
	for e := lo; e < hi; e++ {
		mv.AddInPlace(sc.contribution(kern[e], cur[int(tbl.Nbr[e])-off].vec))
	}
	if cnt := hi - lo; cnt > 0 {
		mv.Scale(1 / float64(cnt))
	}
	//pbqpvet:ignore hotalloc row memo fill on first sight of a (layer, row, edge list) key; later evaluations hit the memo
	o := make(tensor.Vec, m)
	g.layerInto(o, l, hv, mv)
	if len(sc.rows) >= sc.lim.rows {
		clear(sc.rows)
	}
	r := rowRef{vec: o, id: sc.newID()}
	sc.rows[string(sc.key)] = r
	return r
}
