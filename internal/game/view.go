package game

import (
	"pbqprl/internal/cost"
	"pbqprl/internal/gcn"
)

// View returns a gcn.View over the uncolored suffix of the game. Active
// vertex 0 is the next vertex to color, matching the net package's
// convention. The view is a window onto the game's edge table, which is
// built and packed once in New: creating one copies nothing.
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

func (v *suffixView) EdgeTable() (*gcn.EdgeTable, int) { return &v.s.edges, v.t }

// Snapshot returns an immutable gcn.View of the current uncolored
// suffix, for a training replay buffer: View's window over the game's
// (immutable) packed edges, the cost vectors copied in one allocation.
func (s *State) Snapshot() gcn.View { return gcn.NewFrozenView(&s.edges, s.t, s.m, s.vecs[s.t:]) }
