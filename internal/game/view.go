package game

import (
	"pbqprl/internal/cost"
	"pbqprl/internal/gcn"
	"pbqprl/internal/tensor"
)

// View returns a gcn.View over the uncolored suffix of the game. Active
// vertex 0 is the next vertex to color, matching the net package's
// convention. The view is a window onto the game's edge table, which is
// built and packed once in New: creating one copies nothing, and the
// gcn passes read the table directly (gcn.TableView), not Nbrs and Mat.
// Vertex vectors are read live, so the view is invalidated by
// Play/Undo. Use Snapshot for a frozen copy.
func (s *State) View() gcn.View { return &suffixView{s: s, t: s.t} }

type suffixView struct {
	s *State
	t int
}

func (v *suffixView) N() int { return v.s.n - v.t }
func (v *suffixView) M() int { return v.s.m }

func (v *suffixView) Vec(i int) cost.Vector { return v.s.vecs[v.t+i] }

// EdgeTable implements gcn.TableView.
func (v *suffixView) EdgeTable() (*gcn.EdgeTable, int) { return &v.s.edges, v.t }

func (v *suffixView) Nbrs(i int) []int { return v.s.edges.WindowNbrs(v.t+i, v.t) }

func (v *suffixView) Mat(i, j int) *tensor.Mat { return v.s.edges.MatOf(v.t+i, v.t+j) }

// Snapshot returns an immutable gcn.View of the current uncolored
// suffix, for a training replay buffer: View's window over the game's
// (immutable) packed edges, the cost vectors copied in one allocation.
func (s *State) Snapshot() gcn.View { return gcn.NewFrozenView(&s.edges, s.t, s.m, s.vecs[s.t:]) }
