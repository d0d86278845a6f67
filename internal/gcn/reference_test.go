package gcn_test

// The dense trainable pass, as it stood before Forward and Backward
// moved onto the tape and the packed edge kernels: one matrix looked up
// in the view's table (MatOf, beside WindowNbrs) and one dense product
// per directed edge per layer, a fresh vector for everything. It is the oracle the tape is held to,
// bit for bit: every layer's rows, every message, every gradient tensor.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pbqprl/internal/ate"
	"pbqprl/internal/cost"
	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/nn"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/randgraph"
	"pbqprl/internal/selfplay"
	"pbqprl/internal/tensor"
)

// refGCN is the dense pass over a GCN's weights, with gradient tensors
// and caches of its own.
type refGCN struct {
	m, layers int
	win, bin  *nn.Param
	wself     []*nn.Param
	wnbr      []*nn.Param
	b         []*nn.Param

	feats []tensor.Vec   // φ(v)
	hs    [][]tensor.Vec // hs[l][v], l = 0..layers
	msgs  [][]tensor.Vec // msgs[l][v], message into layer l+1
}

// newRef returns the dense pass over g's weights (shared, so a weight
// update reaches both) with zeroed gradients.
func newRef(g *gcn.GCN) *refGCN {
	var ps []*nn.Param
	for _, p := range g.Params() {
		ps = append(ps, &nn.Param{Name: p.Name, W: p.W, G: tensor.NewVec(len(p.G))})
	}
	r := &refGCN{m: g.M(), layers: g.Layers(), win: ps[0], bin: ps[1]}
	for l := 0; l < r.layers; l++ {
		r.wself, r.wnbr, r.b = append(r.wself, ps[2+3*l]), append(r.wnbr, ps[3+3*l]), append(r.b, ps[4+3*l])
	}
	return r
}

func (g *refGCN) params() []*nn.Param {
	ps := []*nn.Param{g.win, g.bin}
	for l := 0; l < g.layers; l++ {
		ps = append(ps, g.wself[l], g.wnbr[l], g.b[l])
	}
	return ps
}

// nbrsOf and matOf read the window of view's table an edge at a time:
// v's neighbors, and the matrix of edge (v, u), rows = v's color.
func nbrsOf(view gcn.View, v int) []int {
	tbl, off := view.EdgeTable()
	return tbl.WindowNbrs(off+v, off)
}

func matOf(view gcn.View, v, u int) *tensor.Mat {
	tbl, off := view.EdgeTable()
	return tbl.MatOf(off+v, off+u)
}

func (g *refGCN) Forward(view gcn.View) []tensor.Vec {
	n := view.N()
	g.feats = make([]tensor.Vec, n)
	g.hs = make([][]tensor.Vec, g.layers+1)
	g.msgs = make([][]tensor.Vec, g.layers)
	h0 := make([]tensor.Vec, n)
	winM := &tensor.Mat{R: g.m, C: 2 * g.m, W: g.win.W}
	for v := 0; v < n; v++ {
		g.feats[v] = gcn.Featurize(view.Vec(v))
		pre := winM.MulVec(g.feats[v])
		pre.AddInPlace(g.bin.W)
		h0[v] = tanhVec(pre)
	}
	g.hs[0] = h0
	for l := 0; l < g.layers; l++ {
		prev := g.hs[l]
		next := make([]tensor.Vec, n)
		msgs := make([]tensor.Vec, n)
		wself := &tensor.Mat{R: g.m, C: g.m, W: g.wself[l].W}
		wnbr := &tensor.Mat{R: g.m, C: g.m, W: g.wnbr[l].W}
		for v := 0; v < n; v++ {
			msg := tensor.NewVec(g.m)
			nbrs := nbrsOf(view, v)
			for _, u := range nbrs {
				matOf(view, v, u).AddMulVec(msg, prev[u])
			}
			if len(nbrs) > 0 {
				msg.Scale(1 / float64(len(nbrs)))
			}
			msgs[v] = msg
			pre := wself.MulVec(prev[v])
			pre.AddInPlace(wnbr.MulVec(msg))
			pre.AddInPlace(g.b[l].W)
			next[v] = tanhVec(pre)
		}
		g.msgs[l] = msgs
		g.hs[l+1] = next
	}
	return g.hs[g.layers]
}

func (g *refGCN) Backward(view gcn.View, dH []tensor.Vec) {
	n := view.N()
	grad := make([]tensor.Vec, n)
	for v := 0; v < n; v++ {
		grad[v] = dH[v].Clone()
	}
	for l := g.layers - 1; l >= 0; l-- {
		prev := g.hs[l]
		out := g.hs[l+1]
		wself := &tensor.Mat{R: g.m, C: g.m, W: g.wself[l].W}
		wnbr := &tensor.Mat{R: g.m, C: g.m, W: g.wnbr[l].W}
		gwself := &tensor.Mat{R: g.m, C: g.m, W: g.wself[l].G}
		gwnbr := &tensor.Mat{R: g.m, C: g.m, W: g.wnbr[l].G}
		nextGrad := make([]tensor.Vec, n)
		for v := 0; v < n; v++ {
			nextGrad[v] = tensor.NewVec(g.m)
		}
		for v := 0; v < n; v++ {
			dpre := grad[v].Clone()
			for i := range dpre {
				dpre[i] *= 1 - out[v][i]*out[v][i]
			}
			gwself.AddOuter(1, dpre, prev[v])
			gwnbr.AddOuter(1, dpre, g.msgs[l][v])
			g.b[l].G.AddInPlace(dpre)
			nextGrad[v].AddInPlace(wself.MulTVec(dpre))
			dmsg := wnbr.MulTVec(dpre)
			nbrs := nbrsOf(view, v)
			if len(nbrs) == 0 {
				continue
			}
			scale := 1 / float64(len(nbrs))
			for _, u := range nbrs {
				// d msg_v / d h_u = scale · M̃_vu, so the gradient
				// flows back through M̃_vuᵀ = M̃_uv.
				nextGrad[u].AddScaled(scale, matOf(view, u, v).MulVec(dmsg))
			}
		}
		grad = nextGrad
	}
	gwin := &tensor.Mat{R: g.m, C: 2 * g.m, W: g.win.G}
	for v := 0; v < n; v++ {
		dpre := grad[v].Clone()
		for i := range dpre {
			dpre[i] *= 1 - g.hs[0][v][i]*g.hs[0][v][i]
		}
		gwin.AddOuter(1, dpre, g.feats[v])
		g.bin.G.AddInPlace(dpre)
	}
}

func tanhVec(x tensor.Vec) tensor.Vec {
	y := make(tensor.Vec, len(x))
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
	return y
}

// kernel kinds, in gcn's order
const (
	kZero = iota
	kDiag
	kBinary
	kSparse
	kDense
)

func sameRows(t *testing.T, what string, got, want []tensor.Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for v := range want {
		if len(got[v]) != len(want[v]) {
			t.Fatalf("%s row %d: width %d, want %d", what, v, len(got[v]), len(want[v]))
		}
		for i := range want[v] {
			if math.Float64bits(got[v][i]) != math.Float64bits(want[v][i]) {
				t.Fatalf("%s row %d col %d: got %x want %x", what, v, i, math.Float64bits(got[v][i]), math.Float64bits(want[v][i]))
			}
		}
	}
}

// oracle holds one tape GCN against the dense pass over its weights,
// sample after sample, the gradients of both accumulating as a
// minibatch's do.
type oracle struct {
	t     *testing.T
	g     *gcn.GCN
	ref   *refGCN
	rng   *rand.Rand
	kinds [5]int
}

func newOracle(t *testing.T, m, layers int) *oracle {
	g := gcn.New(rand.New(rand.NewSource(7)), m, layers)
	return &oracle{t: t, g: g, ref: newRef(g), rng: rand.New(rand.NewSource(8))}
}

// sample runs Forward and Backward over view on both passes and
// compares everything either leaves behind.
func (o *oracle) sample(what string, view gcn.View) {
	o.t.Helper()
	want, got := o.ref.Forward(view), o.g.Forward(view)
	sameRows(o.t, what+": result", got, want)
	for l := 0; l <= o.g.Layers(); l++ {
		sameRows(o.t, fmt.Sprintf("%s: layer %d", what, l), o.g.TapeRows(l), o.ref.hs[l])
	}
	for l := 0; l < o.g.Layers(); l++ {
		sameRows(o.t, fmt.Sprintf("%s: messages into layer %d", what, l+1), o.g.TapeMsgs(l), o.ref.msgs[l])
	}
	for k, c := range o.g.TapeKinds() {
		o.kinds[k] += c
	}
	dH := make([]tensor.Vec, view.N())
	for v := range dH {
		dH[v] = make(tensor.Vec, view.M())
		for i := range dH[v] {
			dH[v][i] = o.rng.NormFloat64()
		}
	}
	o.ref.Backward(view, dH)
	o.g.Backward(dH)
	for k, p := range o.g.Params() {
		sameRows(o.t, what+": gradient of "+p.Name, []tensor.Vec{p.G}, []tensor.Vec{o.ref.params()[k].G})
	}
}

func ateGraph(t *testing.T, vregs int, seed int64) *pbqp.Graph {
	t.Helper()
	prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
		Name: "ref", NumVRegs: vregs, PairRatio: 0.3, HardRatio: 0.4, MaxLive: 8, Seed: seed,
	})
	g, err := ate.BuildPBQP(prog)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mixedGraph is a random finite-cost graph whose edge matrices cover
// what a register allocator produces beyond zero/∞: all-zero edges,
// sparse matrices of negative coalescing hints, dense matrices, ∞
// entries among finite ones, ∞ beside costs too small to survive the
// transform (a game's kernel indexes them, and folds them as ±0) — and
// a vertex with no edge at all.
func mixedGraph(seed int64, n, m int) *pbqp.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := randgraph.ErdosRenyi(rng, randgraph.Config{N: n, M: m, PEdge: 0.4, PInf: 0.1})
	for _, e := range g.Edges() {
		if e.U == n-1 || e.V == n-1 {
			g.RemoveEdge(e.U, e.V)
			continue
		}
		mat := cost.NewMatrix(m, m)
		switch rng.Intn(5) {
		case 0: // all zero
		case 1: // a coalescing hint: a few negative entries on the diagonal
			for i := 0; i < m; i += 2 {
				mat.Set(i, i, cost.Cost(-1-rng.Float64()*4))
			}
		case 2: // ∞ interference plus a finite penalty
			mat.Set(rng.Intn(m), rng.Intn(m), cost.Inf)
			mat.Set(rng.Intn(m), rng.Intn(m), cost.Cost(rng.Float64()*9))
		case 3: // ∞ beside entries that transform to +0 and -0
			mat.Set(rng.Intn(m), rng.Intn(m), cost.Inf)
			mat.Set(rng.Intn(m), rng.Intn(m), 5e-324)
			mat.Set(rng.Intn(m), rng.Intn(m), -1e-323)
		default: // the generator's dense matrix
			continue
		}
		g.SetEdgeCost(e.U, e.V, mat)
	}
	return g
}

// wholeView is a live view of the whole of g, in g's own vertex order,
// through a game of its own.
func wholeView(g *pbqp.Graph) gcn.View {
	return game.New(g, game.MakeOrder(g, game.OrderFixed, nil)).View()
}

// playSome plays up to k legal moves, first legal color each.
func playSome(st *game.State, k int) {
	for ; k > 0 && !st.Done() && !st.DeadEnd(); k-- {
		for a := 0; a < st.M(); a++ {
			if st.Legal(a) {
				st.Play(a)
				break
			}
		}
	}
}

// TestTapeBitIdenticalToDensePass drives one GCN's tape and the dense
// oracle through every kind of view and kernel, as one sample stream:
// the tape is reused across views of different sizes, and the
// gradients of both passes accumulate over the whole stream.
func TestTapeBitIdenticalToDensePass(t *testing.T) {
	const m = 13
	o := newOracle(t, m, 3)

	// ATE zero/∞ programs: whole games, snapshots along a playout, and a
	// live window that moved forward and back
	for seed := int64(1); seed <= 2; seed++ {
		g := ateGraph(t, 24+int(seed)*7, seed)
		st := game.New(g, game.MakeOrder(g, game.OrderDecLiberty, nil))
		o.sample("ate live view, turn 0", st.View())
		for !st.Done() && !st.DeadEnd() {
			if st.Turn()%5 == 0 {
				o.sample(fmt.Sprintf("ate snapshot, turn %d", st.Turn()), st.Snapshot())
			}
			playSome(st, 1)
		}
		for st.Turn() > 3 {
			st.Undo()
		}
		o.sample("ate live view after Play/Undo, turn 3", st.View())
	}
	if o.kinds[kDiag] == 0 {
		t.Error("the ATE programs folded no diagonal kernel")
	}
	if o.kinds[kBinary] == 0 {
		t.Error("the ATE programs folded no binary kernel")
	}

	// finite costs: every kernel kind, an edgeless vertex, through a
	// game's table, through a second game's, and after a wire round trip
	g := mixedGraph(21, 17, m)
	o.sample("mixed whole-graph view", wholeView(g))
	st := game.New(g, game.MakeOrder(g, game.OrderFixed, nil))
	o.sample("mixed live view", st.View())
	playSome(st, 4)
	o.sample("mixed live view, turn 4", st.View())
	snap := st.Snapshot()
	o.sample("mixed snapshot, turn 4", snap)
	if got := nbrsOf(snap, snap.N()-1); len(got) != 0 {
		t.Fatalf("the last vertex was meant to be edgeless, has neighbors %v", got)
	}
	wire, err := selfplay.EncodeSamples([]selfplay.Sample{{View: snap, Pi: make(tensor.Vec, m)}})
	if err != nil {
		t.Fatal(err)
	}
	thawed, err := selfplay.DecodeSamples(wire)
	if err != nil {
		t.Fatal(err)
	}
	o.sample("mixed thawed sample", thawed[0].View)
	o.sample("single vertex", wholeView(mixedGraph(22, 1, m)))
	o.sample("mixed whole-graph view again", wholeView(g))
	for k, name := range []string{"zero", "diagonal", "binary", "sparse", "dense"} {
		if o.kinds[k] == 0 {
			t.Errorf("no %s kernel was folded", name)
		}
	}
}

// contractViews is the view matrix of TestTapeBitIdenticalToDensePass,
// as a list: live, snapshot, thawed, a whole graph, an edgeless vertex,
// a single vertex. Live views come from games of their own,
// which nothing moves afterwards.
func contractViews(t *testing.T, m int) (names []string, views []gcn.View) {
	t.Helper()
	add := func(name string, v gcn.View) { names, views = append(names, name), append(views, v) }
	ag := ateGraph(t, 31, 1)
	live := game.New(ag, game.MakeOrder(ag, game.OrderDecLiberty, nil))
	playSome(live, 6)
	add("ate live view", live.View())
	moved := game.New(ag, game.MakeOrder(ag, game.OrderDecLiberty, nil))
	playSome(moved, 9)
	add("ate snapshot", moved.Snapshot())
	for moved.Turn() > 3 {
		moved.Undo()
	}
	add("ate live view after Play/Undo", moved.View())

	g := mixedGraph(21, 17, m)
	add("mixed whole-graph view", wholeView(g))
	st := game.New(g, game.MakeOrder(g, game.OrderFixed, nil))
	playSome(st, 4)
	snap := st.Snapshot()
	if got := nbrsOf(snap, snap.N()-1); len(got) != 0 {
		t.Fatalf("the last vertex was meant to be edgeless, has neighbors %v", got)
	}
	add("mixed snapshot with an edgeless vertex", snap)
	wire, err := selfplay.EncodeSamples([]selfplay.Sample{{View: snap, Pi: make(tensor.Vec, m)}})
	if err != nil {
		t.Fatal(err)
	}
	thawed, err := selfplay.DecodeSamples(wire)
	if err != nil {
		t.Fatal(err)
	}
	add("mixed thawed sample", thawed[0].View)
	add("single vertex", wholeView(mixedGraph(22, 1, m)))
	return names, views
}

func randomDH(rng *rand.Rand, view gcn.View) []tensor.Vec {
	dH := make([]tensor.Vec, view.N())
	for v := range dH {
		dH[v] = make(tensor.Vec, view.M())
		for i := range dH[v] {
			dH[v][i] = rng.NormFloat64()
		}
	}
	return dH
}

func sameGradients(t *testing.T, what string, got, want []*nn.Param) {
	t.Helper()
	for k, p := range got {
		sameRows(t, what+": gradient of "+p.Name, []tensor.Vec{p.G}, []tensor.Vec{want[k].G})
	}
}

// TestBackpropAccumulateIsDenseBackward: on a tape the caller owns,
// ForwardTape + Backprop + Accumulate leave what the dense pass leaves —
// rows, messages and every gradient tensor, accumulating over the stream
// of views as a minibatch's do — and Backprop alone moves no bit of any
// parameter or gradient, which is what lets a minibatch's samples run it
// at once.
func TestBackpropAccumulateIsDenseBackward(t *testing.T) {
	const m = 13
	names, views := contractViews(t, m)
	for _, layers := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d layers", layers), func(t *testing.T) {
			g := gcn.New(rand.New(rand.NewSource(7)), m, layers)
			ref := newRef(g)
			rng := rand.New(rand.NewSource(8))
			var tp gcn.Tape
			for k, view := range views {
				g.ForwardTape(&tp, view)
				sameRows(t, names[k]+": result", tp.Rows(), ref.Forward(view))
				dH := randomDH(rng, view)
				ref.Backward(view, dH)
				before := paramBits(g)
				g.Backprop(&tp, dH)
				if after := paramBits(g); !slices.Equal(before, after) {
					t.Fatalf("%s: Backprop wrote a parameter or a gradient", names[k])
				}
				g.Accumulate(&tp)
				sameGradients(t, names[k], g.Params(), ref.params())
			}
		})
	}
}

// paramBits is every W and G of g, bit for bit.
func paramBits(g *gcn.GCN) (bits []uint64) {
	for _, p := range g.Params() {
		for _, vec := range []tensor.Vec{p.W, p.G} {
			for _, x := range vec {
				bits = append(bits, math.Float64bits(x))
			}
		}
	}
	return bits
}

// TestTapesFillConcurrently is a gradient step's sharing pattern, for
// the race detector: one GCN, a tape per view filled and back-propagated
// by a goroutine each — two of them over the same view — then
// accumulated in order. The gradients must be the serial
// Forward/Backward stream's.
func TestTapesFillConcurrently(t *testing.T) {
	const m = 13
	_, views := contractViews(t, m)
	views = append(views, views[1])
	g := gcn.New(rand.New(rand.NewSource(7)), m, 3)
	serial := gcn.New(rand.New(rand.NewSource(7)), m, 3)
	rng := rand.New(rand.NewSource(9))
	dHs := make([][]tensor.Vec, len(views))
	for k, view := range views {
		dHs[k] = randomDH(rng, view)
		serial.Forward(view)
		serial.Backward(dHs[k])
	}
	tapes := make([]gcn.Tape, len(views))
	var wg sync.WaitGroup
	for k := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.ForwardTape(&tapes[k], views[k])
			g.Backprop(&tapes[k], dHs[k])
		}()
	}
	wg.Wait()
	for k := range tapes {
		g.Accumulate(&tapes[k])
	}
	sameGradients(t, "concurrent tapes", g.Params(), serial.Params())
}

// TestEveryKindOfViewAcrossGoroutines: snapshots share their game's
// table, whose slots Infer over the game's live view fills, so Infer
// over a frozen view must read none of them. One goroutine walks a
// game and evaluates its live view while one per snapshot evaluates
// that snapshot, each on a Scratch and a Tape of its own over one GCN:
// every Infer must equal ForwardTape bit for bit, and under -race no
// goroutine may touch what another writes.
func TestEveryKindOfViewAcrossGoroutines(t *testing.T) {
	g := ateGraph(t, 31, 1)
	st := game.New(g, game.MakeOrder(g, game.OrderDecLiberty, nil))
	var snaps []gcn.View
	for len(snaps) < 4 && !st.Done() && !st.DeadEnd() {
		snaps = append(snaps, st.Snapshot())
		playSome(st, 3)
	}
	net := gcn.New(rand.New(rand.NewSource(5)), st.M(), 2)
	type pair struct{ got, want []tensor.Vec }
	evals := make([][]pair, len(snaps)+1)
	eval := func(k int, view gcn.View, sc *gcn.Scratch, tp *gcn.Tape) {
		var p pair
		net.ForwardTape(tp, view)
		for _, row := range tp.Rows() {
			p.want = append(p.want, slices.Clone(row))
		}
		for _, row := range net.Infer(view, sc) {
			p.got = append(p.got, slices.Clone(row))
		}
		evals[k] = append(evals[k], p)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sc gcn.Scratch
		var tp gcn.Tape
		rng := rand.New(rand.NewSource(6))
		for step := 0; step < 200; step++ {
			if st.Turn() > 0 && (st.Done() || st.DeadEnd() || rng.Intn(3) == 0) {
				st.Undo()
			} else {
				playSome(st, 1)
			}
			if !st.Done() {
				eval(0, st.View(), &sc, &tp)
			}
		}
	}()
	for k, snap := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc gcn.Scratch
			var tp gcn.Tape
			for i := 0; i < 50; i++ {
				eval(k+1, snap, &sc, &tp)
			}
		}()
	}
	wg.Wait()
	for k, ps := range evals {
		for i, p := range ps {
			sameRows(t, fmt.Sprintf("goroutine %d, evaluation %d", k, i), p.got, p.want)
		}
	}
	if len(evals[0]) == 0 {
		t.Fatal("the live walk evaluated nothing")
	}
}

// badView is a two-vertex view whose one edge carries mat in both
// directions and whose vectors are vm long.
func badView(vm int, mat *tensor.Mat) gcn.View {
	tbl := &gcn.EdgeTable{Start: []int32{0}}
	k := gcn.Pack(mat)
	for i := 0; i < 2; i++ {
		tbl.AddEdge(1-i, k)
		tbl.Start = append(tbl.Start, int32(len(tbl.Nbr)))
	}
	return gcn.NewView(tbl, 0, vm, []cost.Vector{cost.NewVector(vm), cost.NewVector(vm)}).Freeze()
}

func panicOf(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

// TestTapeMismatchedShapesPanicLikeDensePass: a view that does not fit
// the network — an m×(m+1) or (m+1)×m edge matrix, vectors of m−1
// colors — is rejected by Forward and by Infer on a fresh Scratch with
// the dense pass's message.
func TestTapeMismatchedShapesPanicLikeDensePass(t *testing.T) {
	const m = 4
	for _, bad := range []struct {
		vm   int
		r, c int
	}{{m, m, m + 1}, {m, m + 1, m}, {m - 1, m, m}} {
		view := badView(bad.vm, tensor.NewMat(bad.r, bad.c))
		g := gcn.New(rand.New(rand.NewSource(1)), m, 2)
		want := panicOf(func() { newRef(g).Forward(view) })
		if want == "<nil>" {
			t.Fatalf("the dense pass accepts %+v", bad)
		}
		for name, pass := range map[string]func(){
			"Forward": func() { g.Forward(view) },
			"Infer":   func() { g.Infer(view, &gcn.Scratch{}) },
		} {
			if got := panicOf(pass); got != want {
				t.Errorf("%+v: %s panics with %q, the dense pass with %q", bad, name, got, want)
			}
		}
	}
}

// TestTapeSteadyStateAllocations: over a warm snapshot Backward
// allocates nothing and Forward only the rows it returns.
func TestTapeSteadyStateAllocations(t *testing.T) {
	g := ateGraph(t, 40, 3)
	st := game.New(g, game.MakeOrder(g, game.OrderDecLiberty, nil))
	playSome(st, 5)
	snap := st.Snapshot()
	net := gcn.New(rand.New(rand.NewSource(2)), st.M(), 3)
	dH := net.Forward(snap)
	net.Backward(dH)
	if n := testing.AllocsPerRun(20, func() { net.Forward(snap) }); n > 2 {
		t.Errorf("warm Forward allocates %.0f times, want its result only (2)", n)
	}
	if n := testing.AllocsPerRun(20, func() { net.Backward(dH) }); n != 0 {
		t.Errorf("warm Backward allocates %.0f times", n)
	}
}
