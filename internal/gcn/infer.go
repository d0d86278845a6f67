package gcn

// Read-only GCN inference. Infer embeds a view exactly like Forward
// but through caller-owned scratch buffers and specialized edge-matrix
// kernels, without touching the Backward caches. Its contract is
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

// matKernel is the prepared form of one transformed edge matrix.
// Kernels are immutable once built (transformed matrices never change)
// and cached by matrix pointer; the map key keeps the matrix alive, so
// a cached pointer can never be recycled to a different matrix.
type matKernel struct {
	kind     int
	id       uint64 // never-reused identity for msg-cache keys
	mat      *tensor.Mat
	rowStart []int32 // len R+1; nonzero ranges per row (kBinary, kSparse)
	idx      []int32 // column indices, ascending within each row
	val      []float64
	// contrib caches mat · row per canonical row, keyed by the row's
	// base pointer (the key pins the row, so it can never be read
	// against recycled memory). Living on the kernel keeps the key a
	// single word — the map stays on the fast pointer-hash path.
	contrib map[*float64]tensor.Vec
}

// buildKernel classifies m and packs its nonzero structure.
func buildKernel(m *tensor.Mat) *matKernel {
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
	k := &matKernel{mat: m}
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
	k.rowStart = make([]int32, m.R+1)
	k.idx = make([]int32, 0, nz)
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
func (k *matKernel) addMulVec(dst, x tensor.Vec) {
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
type EdgeTable struct {
	Start []int32       // len n+1: vertex u owns edges [Start[u], Start[u+1])
	Nbr   []int32       // neighbor of each edge, ascending within a vertex
	Mat   []*tensor.Mat // transformed matrix of each edge, rows = the owner's color

	// The memo below is owner's, filled while its generation was gen; it
	// makes a table, like the game it belongs to, single-goroutine.
	// kern[e] is owner.kernel(Mat[e]). The slots hold, per vertex, the
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
// adjacency of a view that brings no edge table, the kernel cache, and
// the content-addressed memoization maps. A Scratch must not be shared
// between goroutines, and it belongs to one network: after the
// network's weights change the owner must call InvalidateWeights
// (net.PBQPNet does this on its training-mode and weight-loading
// transitions).
type Scratch struct {
	feat    tensor.Vec // one vertex's 2m-feature buffer
	featNZ  []int32    // ascending nonzero feature indices
	mrow    tensor.Vec // one vertex's message buffer
	rowsA   []rowRef
	rowsB   []rowRef
	rowsOut []tensor.Vec // Infer's return slice, aliasing cached rows

	flat EdgeTable // Start, Nbr, kern of the current view when it is no TableView; no slots

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

// ensure sizes the buffers for an n-vertex, m-color view.
func (sc *Scratch) ensure(m, n int) {
	if cap(sc.feat) < 2*m {
		//pbqpvet:ignore hotalloc scratch growth on first sight of a larger view; steady state reuses the buffers
		sc.feat = make(tensor.Vec, 2*m)
		sc.featNZ = make([]int32, 0, 2*m)
		sc.mrow = make(tensor.Vec, m) //pbqpvet:ignore hotalloc grow-once alongside feat
		sc.key = make([]byte, 0, 8*m)
	} else {
		sc.feat = sc.feat[:2*m]
		sc.mrow = sc.mrow[:m]
	}
	if cap(sc.rowsA) < n {
		//pbqpvet:ignore hotalloc scratch growth on first sight of a larger view; steady state reuses the buffers
		sc.rowsA = make([]rowRef, n)
		sc.rowsB = make([]rowRef, n)
		sc.rowsOut = make([]tensor.Vec, n) //pbqpvet:ignore hotalloc grow-once alongside rowsA
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

// kernel returns the prepared kernel for the m×m edge matrix mat,
// building and caching it on first sight.
func (sc *Scratch) kernel(mat *tensor.Mat, m int) *matKernel {
	// Forward's AddMulVec rejects any edge matrix that is not m×m
	// before touching it; mirror both checks (columns first) so a
	// mismatched graph panics with the scalar path's exact message
	// instead of reading a kernel out of bounds — or, worse, silently
	// succeeding where the scalar path panics (a zero kernel has no
	// bounds to trip).
	if mat.C != m {
		//pbqpvet:ignore panicfree mirrors (*tensor.Mat).AddMulVec's shape panic on the scalar path
		panic(fmt.Sprintf("tensor: dimension mismatch: want %d, got %d", mat.C, m))
	}
	if mat.R != m {
		//pbqpvet:ignore panicfree mirrors (*tensor.Mat).AddMulVec's shape panic on the scalar path
		panic(fmt.Sprintf("tensor: dimension mismatch: want %d, got %d", mat.R, m))
	}
	if k, ok := sc.kern[mat]; ok {
		return k
	}
	if len(sc.kern) >= sc.lim.kernels {
		sc.dropKernels()
	}
	//pbqpvet:ignore hotalloc kernel build on first sight of an edge matrix; amortized across every later evaluation of its graph
	k := buildKernel(mat)
	k.id = sc.newID()
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

	// Forward calls view.Mat per edge per layer. A window onto a game's
	// edge table brings its edges resolved; any other view is flattened
	// here, once, each directed edge to its kernel by matrix pointer.
	tbl, off := &sc.flat, 0
	if tv, ok := view.(TableView); ok {
		tbl, off = tv.EdgeTable()
		tbl.adopt(sc, m, g.layers)
	} else {
		tbl.Start, tbl.Nbr, tbl.kern = tbl.Start[:0], tbl.Nbr[:0], tbl.kern[:0]
		for v := 0; v < n; v++ {
			tbl.Start = append(tbl.Start, int32(len(tbl.Nbr)))
			for _, u := range view.Nbrs(v) {
				tbl.Nbr = append(tbl.Nbr, int32(u))
				tbl.kern = append(tbl.kern, sc.kernel(view.Mat(v, u), m))
			}
		}
		tbl.Start = append(tbl.Start, int32(len(tbl.Nbr)))
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
			nxt[v] = sc.layerRow(g, l, tbl, off, v, cur)
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
func (sc *Scratch) layerRow(g *GCN, l int, tbl *EdgeTable, off, v int, cur []rowRef) rowRef {
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
		if tbl.kern[e] == nil {
			tbl.kern[e] = sc.kernel(tbl.Mat[e], g.m)
		}
		id := cur[int(tbl.Nbr[e])-off].id
		if slot != nil {
			slot.nbr[e] = id
		}
		key = binary.LittleEndian.AppendUint64(key, tbl.kern[e].id)
		key = binary.LittleEndian.AppendUint64(key, id)
	}
	sc.key = key
	out, ok := sc.rows[string(key)]
	if !ok {
		out = sc.updateRow(g, l, tbl, off, lo, hi, self.vec, cur)
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
	// Forward featurizes into a 2·len(vec) vector that W_in·φ rejects
	// unless len(vec) == m; mirror the check with the scalar path's
	// message so a mismatched vertex never silently embeds short.
	m := g.m
	if len(vec) != m {
		//pbqpvet:ignore panicfree mirrors (*tensor.Mat).MulVec's shape panic on the scalar path
		panic(fmt.Sprintf("tensor: dimension mismatch: want %d, got %d", 2*m, 2*len(vec)))
	}
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
	m := g.m
	// φ(v): squashed finite channel then infinity mask, nonzero indices
	// recorded in ascending order so the sparse fold below visits them
	// exactly as Forward's dense fold does
	sc.feat.Zero()
	sc.featNZ = sc.featNZ[:0]
	for i, c := range vec {
		s := squash(c)
		//pbqpvet:ignore floatcmp exact-zero skipping is the kernel's contract; see the package comment on zero skipping
		if s != 0 {
			sc.feat[i] = s
			sc.featNZ = append(sc.featNZ, int32(i))
		}
	}
	for i, c := range vec {
		if c.IsInf() {
			sc.feat[m+i] = 1
			sc.featNZ = append(sc.featNZ, int32(m+i))
		}
	}
	//pbqpvet:ignore hotalloc h⁰ cache fill on first sight of a cost vector; later evaluations of the same vector hit the cache
	dst := make(tensor.Vec, m)
	win, bin := g.win.W, g.bin.W
	for i := 0; i < m; i++ {
		row := win[i*2*m : (i+1)*2*m]
		s := 0.0
		for _, j := range sc.featNZ {
			s += row[j] * sc.feat[j]
		}
		dst[i] = math.Tanh(s + bin[i])
	}
	if len(sc.h0) >= sc.lim.h0 {
		clear(sc.h0)
	}
	r := rowRef{vec: dst, id: sc.newID()}
	sc.h0[string(sc.key)] = r
	return r
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
// row is tanh(W_self·h + W_nbr·msg + b): both folds run in ascending j
// exactly like Forward's MulVec calls, and the combination (self + nbr)
// + b matches Forward's AddInPlace order, so it is bit-identical to the
// scalar layer.
func (sc *Scratch) updateRow(g *GCN, l int, tbl *EdgeTable, off int, lo, hi int32, hv tensor.Vec, cur []rowRef) rowRef {
	m, mv := g.m, sc.mrow
	mv.Zero()
	for e := lo; e < hi; e++ {
		mv.AddInPlace(sc.contribution(tbl.kern[e], cur[int(tbl.Nbr[e])-off].vec))
	}
	if cnt := hi - lo; cnt > 0 {
		mv.Scale(1 / float64(cnt))
	}
	wself, wnbr, b := g.wself[l].W, g.wnbr[l].W, g.b[l].W
	//pbqpvet:ignore hotalloc row memo fill on first sight of a (layer, row, edge list) key; later evaluations hit the memo
	o := make(tensor.Vec, m)
	for i := 0; i < m; i++ {
		ws := wself[i*m : (i+1)*m]
		wn := wnbr[i*m : (i+1)*m]
		var s, t float64
		for j, wsj := range ws {
			s += wsj * hv[j]
			t += wn[j] * mv[j]
		}
		o[i] = math.Tanh(s + t + b[i])
	}
	if len(sc.rows) >= sc.lim.rows {
		clear(sc.rows)
	}
	r := rowRef{vec: o, id: sc.newID()}
	sc.rows[string(sc.key)] = r
	return r
}
