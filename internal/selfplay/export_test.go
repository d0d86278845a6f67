package selfplay

// ReplaySize returns the number of tuples in the replay queue.
func (t *Trainer) ReplaySize() int { return t.replay.len() }

// Interrupted reports whether the trainer holds a partially finished
// iteration that the next RunIteration call will resume.
func (t *Trainer) Interrupted() bool { return t.pending != nil }
