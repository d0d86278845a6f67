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
// vertices [off, n) onto the one table, and what Infer prepares per
// edge — the kernel — is prepared once per game instead of being
// looked up once per edge per evaluation.
type EdgeTable struct {
	Start []int32       // len n+1: vertex u owns edges [Start[u], Start[u+1])
	Nbr   []int32       // neighbor of each edge, ascending within a vertex
	Mat   []*tensor.Mat // transformed matrix of each edge, rows = the owner's color

	// kern[e] memoizes owner.kernel(Mat[e]) for as long as owner's
	// kernel cache stays in generation gen. The memo makes a table, like
	// the game it belongs to, single-goroutine.
	owner *Scratch
	gen   uint64
	kern  []*matKernel
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

// adopt points the kernel memo at sc, emptying it if it was filled
// from another Scratch or before sc last dropped its kernels.
func (t *EdgeTable) adopt(sc *Scratch) {
	if t.owner == sc && t.gen == sc.kernGen {
		return
	}
	if t.kern == nil {
		t.kern = make([]*matKernel, len(t.Mat))
	} else {
		clear(t.kern)
	}
	t.owner, t.gen = sc, sc.kernGen
}

// Cache bounds: kernels accumulate across episodes (graphs come and
// go); h⁰, message-intern, contribution, and update entries accumulate
// across a search. Each map resets wholesale when it grows past its
// limit — resets cost recomputation, never correctness, because every
// cache key pins its referents (see the memoization comment on Infer).
const (
	maxKernels = 8192
	maxH0      = 4096
	maxIntern  = 8192
	maxContrib = 32768
	maxMsg     = 16384
	maxUpd     = 16384
)

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

// updKey identifies one layer-update output row: the layer index plus
// the ids of the vertex's canonical hidden row and its (interned)
// message row. Update rows depend on the layer weights, so the upd
// cache is dropped by InvalidateWeights.
type updKey struct {
	layer  int
	h, msg uint64
}

// Scratch holds the reusable state of one Infer caller: the flattened
// adjacency of the current view, the kernel cache, and the
// content-addressed memoization maps. A Scratch must not be shared
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

	edgeStart []int32
	edgeU     []int32
	edgeK     []*matKernel

	kern         map[*tensor.Mat]*matKernel
	kernGen      uint64 // bumped whenever kern is dropped; see EdgeTable
	h0           map[string]rowRef
	intern       map[string]rowRef
	msg          map[string]rowRef // (kernel id, row id) edge list → message
	upd          map[updKey]rowRef
	contribCount int // total entries across all kernels' contrib maps
	nextID       uint64
	key          []byte // content-key buffer (h0, intern)
	mkey         []byte // id-key buffer (msg); distinct: both live at once
}

// newID returns a fresh never-reused row/kernel identity.
func (sc *Scratch) newID() uint64 {
	sc.nextID++
	return sc.nextID
}

// InvalidateWeights drops every cache derived from network weights:
// the h⁰ rows and the layer-update rows. Kernels, interned message
// rows, and edge contributions survive — they depend only on the
// (immutable) edge matrices and on row contents, not on weights. The
// msg cache is dropped too, not for correctness (its keys name rows by
// never-reused ids, so stale entries can only miss) but because every
// entry keyed by a pre-change row id is dead weight after the rows are
// recomputed under fresh ids.
func (sc *Scratch) InvalidateWeights() {
	clear(sc.h0)
	clear(sc.upd)
	clear(sc.msg)
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
		sc.edgeStart = make([]int32, 0, n+1)
	} else {
		sc.rowsA, sc.rowsB = sc.rowsA[:n], sc.rowsB[:n]
		sc.rowsOut = sc.rowsOut[:n]
	}
	if sc.kern == nil {
		sc.kern = make(map[*tensor.Mat]*matKernel)
		sc.h0 = make(map[string]rowRef)
		sc.intern = make(map[string]rowRef)
		sc.msg = make(map[string]rowRef)
		sc.upd = make(map[updKey]rowRef)
	}
}

// dropKernels empties the kernel cache (and with it every per-kernel
// contribution cache) and starts a new generation, so edge tables
// holding kernels of the old one resolve theirs afresh.
func (sc *Scratch) dropKernels() {
	clear(sc.kern)
	sc.kernGen++
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
	if len(sc.kern) >= maxKernels {
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
// content-addressed h0 map, later rows from the upd map — so a
// (kernel, row) pair names an edge contribution, a vertex's (kernel
// id, row id) edge list names its whole message row, and a (layer,
// row, message) id triple names an update output, each computed once
// and replayed by lookup. On a steady-state hit a vertex's entire
// message fold — per-edge mat·vec adds and the mean — collapses to one
// key build and one map probe. Message rows are interned by content to
// give identical messages one identity. Replaying a cached value is
// exact, not approximate: each cached vector was produced by the
// identical floating-point fold the scalar path would run, and
// substituting a row for another with identical bits cannot change any
// downstream operation. Pointer-keyed maps pin their referents, and
// id-composed keys can only go stale towards misses (ids are never
// reused), so an entry can never be read against recycled memory;
// evicting any one map merely forces recomputation.
//
//pbqpvet:hotpath
func (g *GCN) Infer(view View, sc *Scratch) []tensor.Vec {
	n := view.N()
	m := g.m
	sc.ensure(m, n)

	// Flatten the adjacency once: Forward calls view.Mat per edge per
	// layer; one pass here resolves each directed edge to its kernel —
	// by slot where the view is a window onto a game's edge table, by
	// matrix pointer otherwise.
	sc.edgeStart = sc.edgeStart[:0]
	sc.edgeU = sc.edgeU[:0]
	sc.edgeK = sc.edgeK[:0]
	if tv, ok := view.(TableView); ok {
		tbl, off := tv.EdgeTable()
		tbl.adopt(sc)
		for v := 0; v < n; v++ {
			sc.edgeStart = append(sc.edgeStart, int32(len(sc.edgeU)))
			for e, hi := tbl.From(off+v, off); e < hi; e++ {
				if tbl.kern[e] == nil {
					tbl.kern[e] = sc.kernel(tbl.Mat[e], m)
				}
				sc.edgeU = append(sc.edgeU, tbl.Nbr[e]-int32(off))
				sc.edgeK = append(sc.edgeK, tbl.kern[e])
			}
		}
	} else {
		for v := 0; v < n; v++ {
			sc.edgeStart = append(sc.edgeStart, int32(len(sc.edgeU)))
			for _, u := range view.Nbrs(v) {
				sc.edgeU = append(sc.edgeU, int32(u))
				sc.edgeK = append(sc.edgeK, sc.kernel(view.Mat(v, u), m))
			}
		}
	}
	sc.edgeStart = append(sc.edgeStart, int32(len(sc.edgeU)))

	// h⁰ = tanh(W_in·φ(v) + b_in), content-cached by cost-vector bytes:
	// across the leaves of one search most vertices carry unchanged
	// vectors, so the squash + mat-vec + tanh runs once per distinct
	// vector instead of once per vertex per evaluation.
	cur, nxt := sc.rowsA, sc.rowsB
	for v := 0; v < n; v++ {
		cur[v] = sc.h0Row(g, view.Vec(v))
	}
	if g.layers == 0 {
		for v := 0; v < n; v++ {
			sc.rowsOut[v] = cur[v].vec
		}
		return sc.rowsOut
	}

	for l := 0; l < g.layers; l++ {
		wself, wnbr, b := g.wself[l].W, g.wnbr[l].W, g.b[l].W
		for v := 0; v < n; v++ {
			// message pass: msg_v = mean of M̃_vu · h_u over neighbors,
			// neighbor order and rounding identical to Forward. The
			// (kernel id, row id) edge list determines the whole fold,
			// including the mean's divisor (the key's length), so a hit
			// skips it entirely. Edgeless vertices share the empty key —
			// and, exactly like Forward, an unscaled all-zero message.
			sc.mkey = sc.mkey[:0]
			lo, hi := sc.edgeStart[v], sc.edgeStart[v+1]
			for e := lo; e < hi; e++ {
				sc.mkey = binary.LittleEndian.AppendUint64(sc.mkey, sc.edgeK[e].id)
				sc.mkey = binary.LittleEndian.AppendUint64(sc.mkey, cur[sc.edgeU[e]].id)
			}
			msg, ok := sc.msg[string(sc.mkey)]
			if !ok {
				msg = sc.msgRow(cur, lo, hi)
			}
			nxt[v] = sc.updateRow(l, cur[v], msg, wself, wnbr, b, m)
		}
		cur, nxt = nxt, cur
	}
	for v := 0; v < n; v++ {
		sc.rowsOut[v] = cur[v].vec
	}
	return sc.rowsOut
}

// msgRow computes one vertex's message row the slow way — per-edge
// cached contributions folded in neighbor order, then the mean — and
// caches it under the (kernel id, row id) edge list sc.mkey holds.
// Adding each whole contribution vector equals the kernel's selective
// per-row adds because a skipped row's entry is exactly +0.0 and the
// accumulator can never be -0.0 (see the package comment).
func (sc *Scratch) msgRow(cur []rowRef, lo, hi int32) rowRef {
	mrow := sc.mrow
	mrow.Zero()
	for e := lo; e < hi; e++ {
		mrow.AddInPlace(sc.contribution(sc.edgeK[e], cur[sc.edgeU[e]].vec))
	}
	if cnt := hi - lo; cnt > 0 {
		mrow.Scale(1 / float64(cnt))
	}
	c := sc.internMsg(mrow)
	if len(sc.msg) >= maxMsg {
		clear(sc.msg)
	}
	sc.msg[string(sc.mkey)] = c
	return c
}

// h0Row returns the canonical h⁰ row for vertex vec, computing and
// caching it on first sight of the vector's contents.
func (sc *Scratch) h0Row(g *GCN, vec cost.Vector) rowRef {
	// Forward featurizes into a 2·len(vec) vector that W_in·φ rejects
	// unless len(vec) == m; mirror the check with the scalar path's
	// message so a mismatched vertex never silently embeds short.
	if len(vec) != g.m {
		//pbqpvet:ignore panicfree mirrors (*tensor.Mat).MulVec's shape panic on the scalar path
		panic(fmt.Sprintf("tensor: dimension mismatch: want %d, got %d", 2*g.m, 2*len(vec)))
	}
	sc.key = sc.key[:0]
	for _, c := range vec {
		sc.key = binary.LittleEndian.AppendUint64(sc.key, math.Float64bits(float64(c)))
	}
	if h, ok := sc.h0[string(sc.key)]; ok {
		return h
	}
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
	if len(sc.h0) >= maxH0 {
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
	if sc.contribCount >= maxContrib {
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

// internMsg returns the canonical row holding mrow's contents, so
// identical message rows share one identity the msg and upd caches can
// key on.
func (sc *Scratch) internMsg(mrow tensor.Vec) rowRef {
	sc.key = sc.key[:0]
	for _, f := range mrow {
		sc.key = binary.LittleEndian.AppendUint64(sc.key, math.Float64bits(f))
	}
	if c, ok := sc.intern[string(sc.key)]; ok {
		return c
	}
	if len(sc.intern) >= maxIntern {
		clear(sc.intern)
	}
	//pbqpvet:ignore hotalloc intern fill on first sight of a message row; later identical rows share the canonical vector
	c := rowRef{vec: mrow.Clone(), id: sc.newID()}
	sc.intern[string(sc.key)] = c
	return c
}

// updateRow returns tanh(W_self·h + W_nbr·msg + b) for one vertex as a
// cached canonical row. Both folds run in ascending j exactly like
// Forward's MulVec calls, and the combination (self + nbr) + b matches
// Forward's AddInPlace order, so the computed row is bit-identical to
// the scalar layer. h and msg must be canonical cached rows.
func (sc *Scratch) updateRow(l int, h, msg rowRef, wself, wnbr, b tensor.Vec, m int) rowRef {
	uk := updKey{layer: l, h: h.id, msg: msg.id}
	if o, ok := sc.upd[uk]; ok {
		return o
	}
	if len(sc.upd) >= maxUpd {
		clear(sc.upd)
	}
	hv, mv := h.vec, msg.vec
	//pbqpvet:ignore hotalloc update cache fill on first sight of a (layer, row, message) triple; later evaluations hit the cache
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
	r := rowRef{vec: o, id: sc.newID()}
	sc.upd[uk] = r
	return r
}
