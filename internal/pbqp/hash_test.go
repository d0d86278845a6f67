package pbqp

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pbqprl/internal/cost"
)

// corpusInputs decodes every seed in the FuzzReadGraph corpus — the
// same inputs the fuzzer replays in CI — so the hash regression test
// covers exactly the graphs whose serialization FuzzReadGraph pins
// byte-stable.
func corpusInputs(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzReadGraph")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading seed corpus: %v", err)
	}
	inputs := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a go fuzz corpus file", e.Name())
		}
		// Each corpus value line is []byte("...") with Go quoting.
		val := strings.TrimSpace(lines[1])
		val = strings.TrimPrefix(val, "[]byte(")
		val = strings.TrimSuffix(val, ")")
		data, err := strconv.Unquote(val)
		if err != nil {
			t.Fatalf("%s: unquoting corpus value: %v", e.Name(), err)
		}
		inputs[e.Name()] = []byte(data)
	}
	if len(inputs) == 0 {
		t.Fatal("seed corpus is empty")
	}
	return inputs
}

// TestCanonicalHashStableOverSeedCorpus is the CanonicalHash regression
// gate: for every accepted graph in the FuzzReadGraph seed corpus, the
// hash is byte-stable across Read→Write round trips — reparsing a
// graph's own serialization yields the identical digest, so cache keys
// and shard selection never depend on which copy of a graph arrived.
func TestCanonicalHashStableOverSeedCorpus(t *testing.T) {
	accepted := 0
	for name, data := range corpusInputs(t) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			continue // hostile seeds are the parser's problem, not the hash's
		}
		accepted++
		h1, err := CanonicalHash(g)
		if err != nil {
			t.Fatalf("%s: hash: %v", name, err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		g2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: own output rejected: %v", name, err)
		}
		h2, err := CanonicalHash(g2)
		if err != nil {
			t.Fatalf("%s: rehash: %v", name, err)
		}
		if h1 != h2 {
			t.Fatalf("%s: hash not stable across Read→Write round trip: %x vs %x", name, h1, h2)
		}
		s, err := CanonicalHashString(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(s) != 64 || strings.ToLower(s) != s {
			t.Fatalf("%s: hash string %q is not 64 lowercase hex chars", name, s)
		}
	}
	if accepted == 0 {
		t.Fatal("no corpus seed parsed; the regression test covers nothing")
	}
}

// TestCanonicalHashDistinguishes pins that semantically different
// graphs get different digests while an identical reconstruction gets
// the same one.
func TestCanonicalHashDistinguishes(t *testing.T) {
	build := func(c cost.Cost) *Graph {
		g := New(2, 2)
		g.SetVertexCost(0, cost.Vector{c, 1})
		g.AddEdgeCost(0, 1, cost.NewMatrixFrom([][]cost.Cost{{0, 1}, {1, 0}}))
		return g
	}
	a, err := CanonicalHash(build(5))
	if err != nil {
		t.Fatal(err)
	}
	same, err := CanonicalHash(build(5))
	if err != nil {
		t.Fatal(err)
	}
	diff, err := CanonicalHash(build(6))
	if err != nil {
		t.Fatal(err)
	}
	if a != same {
		t.Fatal("identical graphs hash differently")
	}
	if a == diff {
		t.Fatal("different graphs collide on a toy example")
	}
}

// TestCanonicalHashRejectsPartiallyReduced mirrors Write's contract:
// graphs with removed vertices have no canonical form.
func TestCanonicalHashRejectsPartiallyReduced(t *testing.T) {
	g := New(2, 2)
	g.RemoveVertex(0)
	if _, err := CanonicalHash(g); err == nil {
		t.Fatal("want error for partially reduced graph")
	}
	if _, err := CanonicalHashString(g); err == nil {
		t.Fatal("want error for partially reduced graph (string form)")
	}
}

// CanonicalHashString is CanonicalHash rendered as lowercase hex, the
// form the golden digests are recorded in.
func CanonicalHashString(g *Graph) (string, error) {
	sum, err := CanonicalHash(g)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(sum[:]), nil
}
