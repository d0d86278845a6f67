package game

import "pbqprl/internal/gcn"

// View returns a gcn.View over the uncolored suffix of the game. Active
// vertex 0 is the next vertex to color, matching the net package's
// convention. The view is a window onto the game's edge table, which is
// built and packed once in New: creating one copies and allocates
// nothing. Vertex vectors are read live, so the view is invalidated by
// Play/Undo. Use Snapshot for a frozen copy.
func (s *State) View() gcn.View { return gcn.NewView(s.edges, s.t, s.m, s.vecs[s.t:]) }

// Snapshot returns an immutable gcn.View of the current uncolored
// suffix, for a training replay buffer: View, frozen, so the window's
// cost vectors are copied and the game's (immutable) packed edges are
// shared.
func (s *State) Snapshot() gcn.View { return s.View().Freeze() }
