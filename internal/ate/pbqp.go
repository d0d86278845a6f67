package ate

import (
	"fmt"

	"pbqprl/internal/cost"
	"pbqprl/internal/pbqp"
)

// The constraint terms an edge (lo, hi), lo < hi, can carry: a bitmask
// per vreg pair, one matrix per combination.
const (
	termDiffer  = 1 << iota // the two must differ: an infinite diagonal
	termPair                // pairing, lo's register as the first source
	termPairRev             // pairing, hi's register as the first source
	termCombos  = 1 << iota // the number of masks
)

// reversed is the combination mask names seen from hi: the transpose of
// mask's matrix is reversed(mask)'s.
func reversed(mask uint8) uint8 {
	return mask&termDiffer | mask&termPair<<1 | mask&termPairRev>>1
}

// BuildPBQP derives the register-allocation PBQP graph of a program
// (Section II-B): one vertex per virtual register with m = Registers
// colors, all costs zero or infinity.
//
//   - Register classes: vreg v's vector is zero on Allowed[v] and
//     infinite elsewhere.
//   - Interference: vregs with overlapping live ranges must differ —
//     an infinite diagonal in the edge matrix.
//   - Major-cycle write-once: two vregs defined in the same major cycle
//     must differ.
//   - Major-cycle read-ahead-of-write: a vreg read at slot p and a vreg
//     defined at slot q > p of the same cycle must differ.
//   - Pairing: the two sources of an add must be a pairable register
//     pair — infinite entries at non-pairable combinations.
//
// Every edge is the sum of its constraints' matrices, and with entries
// of 0 and ∞ alone that sum is the union of their ∞ entries (0+0 = 0,
// anything+∞ = ∞, with Inf's bits). So the builder first records which
// terms each vreg pair carries, then installs each edge once, in
// ascending (lo, hi) order, from a table of at most seven matrices, one
// per combination: every edge with the same constraints shares one
// matrix (the pbqp ownership rule), and a symmetric combination serves
// as both orientations of its edges.
func BuildPBQP(p *Program) (*pbqp.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, m := p.NumVRegs, p.Machine.Registers
	g := pbqp.New(n, m)

	for v := 0; v < n; v++ {
		vec := cost.NewVector(m)
		if len(p.Allowed) > 0 && p.Allowed[v] != nil {
			vec = cost.NewInfVector(m)
			for _, r := range p.Allowed[v] {
				if r < 0 || r >= m {
					return nil, fmt.Errorf("ate: vreg %d allows out-of-range register %d", v, r)
				}
				vec[r] = 0
			}
		}
		g.SetVertexCost(v, vec)
	}

	// terms[lo*n+hi] is pair (lo, hi)'s mask.
	terms := make([]uint8, n*n)
	add := func(u, v int, term uint8) {
		switch {
		case u < v:
			terms[u*n+v] |= term
		case u > v:
			terms[v*n+u] |= reversed(term)
		}
	}

	// interference
	start, end := p.LiveRanges()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if start[u] <= end[v] && start[v] <= end[u] {
				add(u, v, termDiffer)
			}
		}
	}

	// major-cycle constraints
	ways := p.Machine.Ways
	for c := 0; c*ways < len(p.Instrs); c++ {
		lo := c * ways
		hi := lo + ways
		if hi > len(p.Instrs) {
			hi = len(p.Instrs)
		}
		var defs []int
		type read struct{ vreg, slot int }
		var reads []read
		for i := lo; i < hi; i++ {
			in := p.Instrs[i]
			for _, u := range in.Uses {
				reads = append(reads, read{u, i})
			}
			if def := in.DefReg(); def >= 0 {
				for _, d := range defs {
					add(d, def, termDiffer) // write-once
				}
				for _, r := range reads {
					if r.slot < i {
						add(r.vreg, def, termDiffer) // read ahead of write
					}
				}
				defs = append(defs, def)
			}
		}
	}

	// pairing
	for _, in := range p.Instrs {
		if in.Op == OpAdd {
			add(in.Uses[0], in.Uses[1], termPair)
		}
	}

	var table [termCombos]*cost.Matrix
	matrix := func(mask uint8) *cost.Matrix {
		if table[mask] == nil {
			mat := cost.NewMatrix(m, m)
			for a := 0; a < m; a++ {
				for b := 0; b < m; b++ {
					if mask&termDiffer != 0 && a == b ||
						mask&termPair != 0 && !p.Machine.Pairable(a, b) ||
						mask&termPairRev != 0 && !p.Machine.Pairable(b, a) {
						mat.Set(a, b, cost.Inf)
					}
				}
			}
			table[mask] = mat
		}
		return table[mask]
	}
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi < n; hi++ {
			if mask := terms[lo*n+hi]; mask != 0 {
				g.SetEdgePair(lo, hi, matrix(mask), matrix(reversed(mask)))
			}
		}
	}
	return g, nil
}
