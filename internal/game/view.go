package game

import (
	"sort"

	"pbqprl/internal/cost"
	"pbqprl/internal/gcn"
	"pbqprl/internal/tensor"
)

// View returns a gcn.View over the uncolored suffix of the game. Active
// vertex 0 is the next vertex to color, matching the net package's
// convention. The view is a window onto the game's edge table, which is
// built once in New: creating one copies nothing, and gcn.Infer reads
// the table directly (gcn.TableView). Vertex vectors are read live, so
// the view is invalidated by Play/Undo. Use Snapshot for a frozen copy.
func (s *State) View() gcn.View { return &suffixView{s: s, t: s.t} }

type suffixView struct {
	s *State
	t int

	// window-relative adjacency for Nbrs, which only the trainable
	// gcn.Forward asks for; built on first use
	nbrStart []int32
	nbrs     []int
}

func (v *suffixView) N() int { return v.s.n - v.t }
func (v *suffixView) M() int { return v.s.m }

func (v *suffixView) Vec(i int) cost.Vector { return v.s.vecs[v.t+i] }

// EdgeTable implements gcn.TableView.
func (v *suffixView) EdgeTable() (*gcn.EdgeTable, int) { return &v.s.edges, v.t }

func (v *suffixView) Nbrs(i int) []int {
	if v.nbrStart == nil {
		tbl, n := &v.s.edges, v.N()
		v.nbrStart = make([]int32, n+1)
		v.nbrs = make([]int, 0, tbl.Start[v.s.n]-tbl.Start[v.t])
		for u := 0; u < n; u++ {
			for lo, hi := tbl.From(v.t+u, v.t); lo < hi; lo++ {
				v.nbrs = append(v.nbrs, int(tbl.Nbr[lo])-v.t)
			}
			v.nbrStart[u+1] = int32(len(v.nbrs))
		}
	}
	return v.nbrs[v.nbrStart[i]:v.nbrStart[i+1]]
}

func (v *suffixView) Mat(i, j int) *tensor.Mat {
	tbl := &v.s.edges
	lo, hi := tbl.Start[v.t+i], tbl.Start[v.t+i+1]
	row := tbl.Nbr[lo:hi]
	k := sort.Search(len(row), func(k int) bool { return int(row[k]) >= v.t+j })
	if k == len(row) || int(row[k]) != v.t+j {
		return nil
	}
	return tbl.Mat[int(lo)+k]
}

// Snapshot returns a self-contained, immutable gcn.View of the current
// uncolored suffix, for storing in a training replay buffer. Vertex cost
// vectors are copied; the transformed edge matrices are shared with the
// state (they never change during an episode).
func (s *State) Snapshot() gcn.View {
	n := s.n - s.t
	snap := &snapshotView{
		m:    s.m,
		vecs: make([]cost.Vector, n),
		nbrs: make([][]int, n),
		mats: make([]map[int]*tensor.Mat, n),
	}
	for i := 0; i < n; i++ {
		snap.vecs[i] = s.vecs[s.t+i].Clone()
		snap.mats[i] = make(map[int]*tensor.Mat)
		for lo, hi := s.edges.From(s.t+i, s.t); lo < hi; lo++ {
			j := int(s.edges.Nbr[lo]) - s.t
			snap.nbrs[i] = append(snap.nbrs[i], j)
			snap.mats[i][j] = s.edges.Mat[lo]
		}
	}
	return snap
}

type snapshotView struct {
	m    int
	vecs []cost.Vector
	nbrs [][]int
	mats []map[int]*tensor.Mat
}

func (v *snapshotView) N() int                   { return len(v.vecs) }
func (v *snapshotView) M() int                   { return v.m }
func (v *snapshotView) Vec(i int) cost.Vector    { return v.vecs[i] }
func (v *snapshotView) Nbrs(i int) []int         { return v.nbrs[i] }
func (v *snapshotView) Mat(i, j int) *tensor.Mat { return v.mats[i][j] }
