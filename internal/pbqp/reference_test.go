package pbqp

// The text reader as it stood before it moved onto bytes (PR 23): every
// line a string, every field cut out by strings.Fields, every cost
// parsed twice, every vector copied into the graph. It is the oracle
// the in-place reader is held to — same accept/reject, same error text,
// same graph — on every input the tests and the fuzzer can make.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"pbqprl/internal/cost"
)

func referenceReadWithLimits(r io.Reader, limits ReadLimits) (*Graph, error) {
	lim := limits.withDefaults()
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	var g *Graph
	var seenVertex []bool
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "pbqp":
			if g != nil {
				return nil, fmt.Errorf("pbqp: line %d: duplicate header", lineno)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("pbqp: line %d: header wants 'pbqp n m'", lineno)
			}
			n, err1 := strconv.Atoi(fields[1])
			m, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || n < 0 || m <= 0 {
				return nil, fmt.Errorf("pbqp: line %d: bad dimensions", lineno)
			}
			if n > lim.MaxVertices {
				return nil, fmt.Errorf("pbqp: line %d: vertex count %d exceeds the limit %d", lineno, n, lim.MaxVertices)
			}
			if m > lim.MaxColors {
				return nil, fmt.Errorf("pbqp: line %d: color count %d exceeds the limit %d", lineno, m, lim.MaxColors)
			}
			if n > 0 && n*m > maxCostEntries {
				return nil, fmt.Errorf("pbqp: line %d: graph size %d×%d exceeds the total cost-entry limit", lineno, n, m)
			}
			g = New(n, m)
			seenVertex = make([]bool, n)
		case "v":
			if g == nil {
				return nil, fmt.Errorf("pbqp: line %d: vertex before header", lineno)
			}
			if len(fields) != 2+g.M() {
				return nil, fmt.Errorf("pbqp: line %d: vertex wants %d costs", lineno, g.M())
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil || u < 0 || u >= g.NumVertices() {
				return nil, fmt.Errorf("pbqp: line %d: bad vertex id", lineno)
			}
			if seenVertex[u] {
				return nil, fmt.Errorf("pbqp: line %d: duplicate vertex %d", lineno, u)
			}
			seenVertex[u] = true
			vec, err := referenceParseCosts(fields[2:])
			if err != nil {
				return nil, fmt.Errorf("pbqp: line %d: %w", lineno, err)
			}
			g.SetVertexCost(u, vec)
		case "e":
			if g == nil {
				return nil, fmt.Errorf("pbqp: line %d: edge before header", lineno)
			}
			if len(fields) != 3+g.M()*g.M() {
				return nil, fmt.Errorf("pbqp: line %d: edge wants %d costs", lineno, g.M()*g.M())
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 0 || v < 0 ||
				u >= g.NumVertices() || v >= g.NumVertices() || u == v {
				return nil, fmt.Errorf("pbqp: line %d: bad edge endpoints", lineno)
			}
			if g.HasEdge(u, v) {
				return nil, fmt.Errorf("pbqp: line %d: duplicate edge (%d,%d)", lineno, u, v)
			}
			vec, err := referenceParseCosts(fields[3:])
			if err != nil {
				return nil, fmt.Errorf("pbqp: line %d: %w", lineno, err)
			}
			mat := &cost.Matrix{Rows: g.M(), Cols: g.M(), Data: vec}
			g.AddEdgeCost(u, v, mat)
		default:
			return nil, fmt.Errorf("pbqp: line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pbqp: line %d: read: %w", lineno+1, err)
	}
	if g == nil {
		return nil, fmt.Errorf("pbqp: missing header")
	}
	return g, nil
}

func referenceParseCosts(fields []string) (cost.Vector, error) {
	v := make(cost.Vector, len(fields))
	for i, f := range fields {
		c, err := referenceParseCost(f)
		if err != nil {
			return nil, err
		}
		if fl, ferr := strconv.ParseFloat(strings.TrimSpace(f), 64); ferr == nil && !math.IsInf(fl, 0) {
			if cost.Cost(fl).IsInf() || cost.Cost(-fl).IsInf() {
				return nil, fmt.Errorf("pbqp: finite cost %q is in the reserved infinite range; write \"inf\"", f)
			}
		}
		v[i] = c
	}
	return v, nil
}

// referenceParseCost is cost.Parse as it stood beside that reader.
func referenceParseCost(s string) (cost.Cost, error) {
	if strings.EqualFold(strings.TrimSpace(s), "inf") {
		return cost.Inf, nil
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("cost: parse %q: %w", s, err)
	}
	if math.IsInf(f, 1) {
		return cost.Inf, nil
	}
	if math.IsNaN(f) || math.IsInf(f, -1) {
		return 0, fmt.Errorf("cost: parse %q: not a valid PBQP cost", s)
	}
	return cost.Cost(f), nil
}

// AgreesWithReference fails t unless ReadWithLimits and the reference
// reader agree on data under limits: both reject with the same error
// text, or both accept and Write the same bytes. It returns the
// reader's graph (nil on rejection). Exported from a test file so the
// package's external tests, which can import the graph generators,
// share it.
func AgreesWithReference(t testing.TB, data []byte, limits ReadLimits) *Graph {
	t.Helper()
	g, err := ReadWithLimits(bytes.NewReader(data), limits)
	ref, refErr := referenceReadWithLimits(bytes.NewReader(data), limits)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("Read: %v\nreference: %v\ninput: %q", err, refErr, Elide(string(data), 400))
	}
	if err != nil {
		return nil
	}
	if err := g.Validate(); err != nil { // the reader fills both orientations itself
		t.Fatalf("accepted graph fails validation: %v\ninput: %q", err, Elide(string(data), 400))
	}
	var got, want bytes.Buffer
	if err := Write(&got, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := Write(&want, ref); err != nil {
		t.Fatalf("Write of the reference graph: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Read and the reference reader built different graphs from %q:\n%s\nvs\n%s",
			Elide(string(data), 400), Elide(got.String(), 400), Elide(want.String(), 400))
	}
	return g
}
