package pbqp

import (
	"crypto/sha256"
	"fmt"
)

// CanonicalHash returns the SHA-256 of g's canonical textual
// serialization — the exact bytes Write produces. Write is the
// canonical form: vertices ascend, edges are emitted in the sorted
// order Edges() guarantees, and FuzzReadGraph pins the whole
// Read→Write round trip byte-stable, so two graphs hash equal exactly
// when their serializations are byte-identical. The serving layer keys
// its content-addressed solution cache and its consistent-hash shard
// selection on this digest.
//
// Graphs with removed vertices have no canonical serialization and
// return Write's error.
func CanonicalHash(g *Graph) ([sha256.Size]byte, error) {
	h := sha256.New()
	if err := Write(h, g); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("pbqp: canonical hash: %w", err)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum, nil
}
