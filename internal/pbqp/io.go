package pbqp

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"pbqprl/internal/cost"
)

// The textual PBQP format is line oriented:
//
//	pbqp <n> <m>
//	v <u> <c_0> ... <c_{m-1}>
//	e <u> <v> <m_00> <m_01> ... <m_{m-1,m-1}>
//
// Vertex lines are optional (missing vertices keep zero vectors); edge
// matrices are row-major with rows indexing u's color. "inf" denotes the
// infinite cost. '#' starts a comment.

// Write serializes g in the textual PBQP format: AppendText's bytes,
// handed to w in one Write.
func Write(w io.Writer, g *Graph) error {
	p := writeBufs.Get().(*[]byte)
	buf, err := AppendText((*p)[:0], g)
	if err == nil {
		_, err = w.Write(buf)
	}
	*p = buf
	writeBufs.Put(p)
	return err
}

// writeBufs recycles Write's buffers, which no io.Writer may keep: one
// grown from nothing per call costs more than the serialization.
var writeBufs = sync.Pool{New: func() any { return new([]byte) }}

// AppendText appends g in the textual PBQP format to dst and returns
// the extended slice, as strconv's Append functions do; dead vertices
// are not representable, and leave dst as it came with an error. It
// sits on the serving hot path (the router's canonical form of every
// new spelling), so it formats by hand and reads the rows through
// row.ordered, which allocates only for a row with a tail or a
// tombstone (Read and the builders leave none). The byte stream is the
// cache key and never changes: round trips over the fuzz corpus and
// TestCanonicalHashGolden pin it.
func AppendText(dst []byte, g *Graph) ([]byte, error) {
	if g.AliveCount() != g.NumVertices() {
		return dst, errors.New("pbqp: cannot serialize graph with removed vertices")
	}
	// Where in dst the costs of the last few matrices written stand: an
	// edge carrying one of those pointers (Read and the graph builders
	// share a matrix among many edges) copies its bytes instead of
	// formatting them again.
	var mats [8]*cost.Matrix
	var spans [8][2]int // mats[k]'s costs are dst[spans[k][0]:spans[k][1]]
	next := 0
	dst = strconv.AppendInt(append(dst, "pbqp "...), int64(g.NumVertices()), 10)
	dst = append(strconv.AppendInt(append(dst, ' '), int64(g.M()), 10), '\n')
	for u := 0; u < g.NumVertices(); u++ {
		dst = strconv.AppendInt(append(dst, "v "...), int64(u), 10)
		dst = append(appendCosts(dst, g.VertexCost(u)), '\n')
	}
	var scratch []entry
	for u := range g.rows {
		r := g.rows[u].ordered(&scratch)
		for _, e := range r[lowerBound(r, u+1):] {
			dst = strconv.AppendInt(append(dst, "e "...), int64(u), 10)
			dst = strconv.AppendInt(append(dst, ' '), int64(e.v), 10)
			if k := slices.Index(mats[:], e.m); k >= 0 {
				dst = append(dst, dst[spans[k][0]:spans[k][1]]...)
			} else {
				lo := len(dst)
				dst = appendCosts(dst, e.m.Data)
				mats[next], spans[next] = e.m, [2]int{lo, len(dst)}
				next = (next + 1) % len(mats)
			}
			dst = append(dst, '\n')
		}
	}
	return dst, nil
}

// appendCosts appends each cost of cs after a space, rendered exactly
// as cost.Cost.String renders it; an exact positive zero — with inf,
// 99 % of an ATE graph — skips strconv.
//
// It allocates only to grow buf.
func appendCosts(buf []byte, cs []cost.Cost) []byte {
	for _, c := range cs {
		switch {
		case c.IsZero() && !math.Signbit(float64(c)):
			buf = append(buf, ' ', '0')
		case c.IsInf():
			buf = append(buf, " inf"...)
		default:
			buf = strconv.AppendFloat(append(buf, ' '), float64(c), 'g', -1, 64)
		}
	}
	return buf
}

// String renders g in the textual PBQP format (empty on serialization
// failure, which only happens for partially reduced graphs).
func (g *Graph) String() string {
	b, err := AppendText(nil, g)
	if err != nil {
		return ""
	}
	return string(b)
}

// Elide truncates s to at most max bytes for logging, appending a note
// with the number of bytes dropped. Large graphs serialize to many
// megabytes; panic-path repro logs cap them so one bad request cannot
// flood the log. Strings within the budget pass through unchanged.
func Elide(s string, max int) string {
	if max < 0 {
		max = 0
	}
	if len(s) <= max {
		return s
	}
	return fmt.Sprintf("%s\n... (%d bytes elided)", s[:max], len(s)-max)
}

// Parser hardening bounds. A hostile header like "pbqp 2000000000 9999"
// would otherwise allocate n·m cost entries before a single byte of
// content is validated; graphs past these caps are rejected up front.
// Real register-allocation problems are orders of magnitude smaller.
const (
	// MaxVertices is the largest vertex count Read accepts.
	MaxVertices = 1 << 22
	// MaxColors is the largest color count (register-class size) Read
	// accepts.
	MaxColors = 1 << 12
	// maxCostEntries caps the total vertex-vector allocation n·m.
	maxCostEntries = 1 << 26
)

// ReadLimits bounds what ReadWithLimits will accept before allocating.
// The zero value of any field means "use the package default", so
// callers can tighten a single knob without restating the others. A
// serving process typically shrinks these well below the package
// defaults: its request path has a latency budget that a
// million-vertex graph could never meet anyway.
type ReadLimits struct {
	// MaxVertices caps the header vertex count n.
	MaxVertices int
	// MaxColors caps the header color count m.
	MaxColors int
}

// DefaultReadLimits returns the package-default parser bounds — the
// ones Read itself enforces.
func DefaultReadLimits() ReadLimits {
	return ReadLimits{
		MaxVertices: MaxVertices,
		MaxColors:   MaxColors,
	}
}

// withDefaults fills unset (zero or negative) fields from the package
// defaults and clamps each bound to its package maximum: the hardening
// caps are a ceiling, not a suggestion.
func (l ReadLimits) withDefaults() ReadLimits {
	d := DefaultReadLimits()
	if l.MaxVertices <= 0 || l.MaxVertices > d.MaxVertices {
		l.MaxVertices = d.MaxVertices
	}
	if l.MaxColors <= 0 || l.MaxColors > d.MaxColors {
		l.MaxColors = d.MaxColors
	}
	return l
}

// Read parses a graph in the textual PBQP format. Malformed input —
// absurd or negative dimensions, costs in the reserved infinite range
// that are not spelled "inf", NaN, duplicate vertex or edge lines,
// out-of-range endpoints, truncated lines — yields a descriptive error;
// Read never panics on any input. Read enforces the package-default
// size caps; use ReadWithLimits to tighten them per call.
func Read(r io.Reader) (*Graph, error) {
	return ReadWithLimits(r, DefaultReadLimits())
}

// ReadWithLimits is Read under caller-chosen size caps. Unset limit
// fields fall back to the package defaults, and no field can exceed
// them — the defaults are the hard ceiling. Graphs past any cap are
// rejected with a descriptive error before the corresponding
// allocation happens.
//
// It works on the scanner's bytes, in place, in one walk per line (see
// walk) that counts the line's fields and decodes its costs into one
// scratch vector the call reuses, which never holds more costs than the
// line has fields: a hostile "pbqp 2 4096" header must not buy 128 MB
// per short edge line. Only a line that passes its count and id checks
// gets storage in the graph: a vertex line's costs are copied into the
// vector New gave it, an edge line gets the matrix pair of every line
// with its costs (see matrices). Edges are installed once the input is
// read (see adoptEdges), so that a vertex listing thousands of neighbors
// in any order costs one sort, not a sorted insert per line.
func ReadWithLimits(r io.Reader, limits ReadLimits) (*Graph, error) {
	var edges []edgeLine
	g, err := readLines(r, limits.withDefaults(), &edges, &matrices{})
	// An edge listed twice is reported at its second line if no error
	// came before that line, as a reader checking each line against the
	// edges before it would; every line in the log precedes the error,
	// if any. Installing the edges says whether there is a duplicate,
	// the log where the first one is.
	if err != nil || g.adoptEdges(edges) {
		if d, ok := firstDuplicate(edges); ok {
			return nil, fmt.Errorf("pbqp: line %d: duplicate edge (%d,%d)", d.line, d.u, d.v)
		}
		return nil, err
	}
	return g, nil
}

// edgeLine is one edge line that passed its count and endpoint checks:
// where it stands, its endpoints as written, and the matrix it carries
// in both orientations (rows = u's color in uv).
type edgeLine struct {
	line   int
	u, v   int32
	uv, vu *cost.Matrix
}

// firstDuplicate returns the earliest line that repeats the edge of a
// line before it, in either orientation. It sorts edges.
func firstDuplicate(edges []edgeLine) (edgeLine, bool) {
	key := func(e edgeLine) int64 { return int64(min(e.u, e.v))<<32 | int64(max(e.u, e.v)) }
	slices.SortFunc(edges, func(a, b edgeLine) int {
		return cmp.Or(cmp.Compare(key(a), key(b)), cmp.Compare(a.line, b.line))
	})
	var first edgeLine
	found := false
	for i := 1; i < len(edges); i++ {
		if key(edges[i-1]) == key(edges[i]) && (!found || edges[i].line < first.line) {
			first, found = edges[i], true
		}
	}
	return first, found
}

// readLines parses the text into a graph with vectors and no edges,
// logging each edge line to *edges for ReadWithLimits to install, with
// the pairs of matrices shared among them.
func readLines(r io.Reader, lim ReadLimits, edges *[]edgeLine, shared *matrices) (*Graph, error) {
	sc := bufio.NewScanner(r)
	// Nil initial buffer: the scanner grows lazily (4KiB doubling) up to
	// the 16MiB token cap, so parsing a small graph does not pay a fixed
	// megabyte-zeroing tax per call — it dominated the serving hot path.
	sc.Buffer(nil, 1<<24)
	var g *Graph
	var seenVertex []bool
	var costs cost.Vector // the line's costs, decoded by walk
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		m := 0
		if g != nil {
			m = g.m
		}
		tail, known, hit := shared.spelled(line)
		nf, costErr := 3+m*m, error(nil) // a known spelling is a good edge line's costs
		if !hit {
			var ascii bool
			nf, ascii, costErr = walk(line, m, &costs)
			if !ascii {
				// Unicode white space (U+0085, U+00A0, …) separates fields
				// too: strings.Fields says where, as it always has.
				line = []byte(strings.Join(strings.Fields(string(line)), " "))
				nf, _, costErr = walk(line, m, &costs)
			}
		}
		if nf == 0 {
			continue
		}
		directive, rest := cutField(line)
		switch string(directive) {
		case "pbqp":
			if g != nil {
				return nil, fmt.Errorf("pbqp: line %d: duplicate header", lineno)
			}
			if nf != 3 {
				return nil, fmt.Errorf("pbqp: line %d: header wants 'pbqp n m'", lineno)
			}
			n, rest, okN := cutInt(rest)
			m, _, okM := cutInt(rest)
			if !okN || !okM || n < 0 || m <= 0 {
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
			if nf != 2+g.m {
				return nil, fmt.Errorf("pbqp: line %d: vertex wants %d costs", lineno, g.m)
			}
			u, _, ok := cutInt(rest)
			if !ok || u < 0 || u >= g.NumVertices() {
				return nil, fmt.Errorf("pbqp: line %d: bad vertex id", lineno)
			}
			if seenVertex[u] {
				return nil, fmt.Errorf("pbqp: line %d: duplicate vertex %d", lineno, u)
			}
			seenVertex[u] = true
			if costErr != nil {
				return nil, fmt.Errorf("pbqp: line %d: %w", lineno, costErr)
			}
			copy(g.vecs[u], costs)
		case "e":
			if g == nil {
				return nil, fmt.Errorf("pbqp: line %d: edge before header", lineno)
			}
			if nf != 3+g.m*g.m {
				return nil, fmt.Errorf("pbqp: line %d: edge wants %d costs", lineno, g.m*g.m)
			}
			u, rest, okU := cutInt(rest)
			v, _, okV := cutInt(rest)
			if !okU || !okV || u < 0 || v < 0 ||
				u >= g.NumVertices() || v >= g.NumVertices() || u == v {
				return nil, fmt.Errorf("pbqp: line %d: bad edge endpoints", lineno)
			}
			// Logged even with a bad cost: were this line a duplicate,
			// that would be its error.
			e := edgeLine{line: lineno, u: int32(u), v: int32(v), uv: known[0], vu: known[1]}
			if !hit && costErr == nil {
				e.uv, e.vu = shared.pair(costs, g.m, tail)
			}
			*edges = append(*edges, e)
			if costErr != nil {
				return nil, fmt.Errorf("pbqp: line %d: %w", lineno, costErr)
			}
		default:
			return nil, fmt.Errorf("pbqp: line %d: unknown directive %q", lineno, directive)
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

// isSpace reports whether c is one of the ASCII bytes unicode.IsSpace
// accepts: what strings.Fields splits a pure-ASCII line on.
func isSpace(c byte) bool {
	const spaces = 1<<'\t' | 1<<'\n' | 1<<'\v' | 1<<'\f' | 1<<'\r' | 1<<' '
	return c <= ' ' && spaces>>c&1 != 0
}

// cutField returns the first field of line and what follows it.
func cutField(line []byte) (field, rest []byte) {
	i := 0
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	j := i
	for j < len(line) && !isSpace(line[j]) {
		j++
	}
	return line[i:j], line[j:]
}

// cutInt reads the first field of line as a decimal integer, with
// strconv.Atoi's grammar ("+1" is 1), and returns what follows it.
func cutInt(line []byte) (n int, rest []byte, ok bool) {
	field, rest := cutField(line)
	n, err := strconv.Atoi(string(field))
	return n, rest, err == nil
}

// walk makes the one pass over a line's bytes. It counts the fields
// ASCII white space cuts the line into and reports whether the line is
// pure ASCII — only then is the count the one strings.Fields gives.
// Under a header of m colors (0 before the header) it also decodes the
// costs the line's directive says follow its ids into *costs, reused
// from line to line: at most the m or m·m the line owes, and never more
// than it has. err is the first of those costs that does not decode;
// the caller reports it only after the count and the ids, which come
// first in the line but rank above it as errors.
//
// An unsigned integer of at most 15 digits — "0" above all — is below
// 2^53 and so is its own float64: it is decoded as the field is walked.
// Every other field is classified by parseCost.
//
// TestReadAllocatesPerDistinctLine holds Read to allocations per distinct line.
func walk(line []byte, m int, costs *cost.Vector) (nf int, ascii bool, err error) {
	directive, _ := cutField(line)
	skip, want := 1, 0 // fields before the costs, costs owed
	switch string(directive) {
	case "v":
		skip, want = 2, m
	case "e":
		skip, want = 3, m*m
	}
	dst := (*costs)[:0]
	var seen byte
	for i := 0; ; {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		start, n, other := i, uint(0), uint(0)
		for ; i < len(line) && !isSpace(line[i]); i++ {
			seen |= line[i]
			d := uint(line[i] - '0')
			other |= 9 - d // wraps past 2^63 unless line[i] is a digit
			n = n*10 + d
		}
		nf++
		if nf <= skip || len(dst) == want || err != nil {
			continue
		}
		var c cost.Cost
		if int(other) >= 0 && i-start <= 15 {
			c = cost.Cost(int(n))
		} else if c, err = parseCost(line[start:i]); err != nil {
			continue
		}
		dst = append(dst, c)
	}
	*costs = dst
	return nf, seen < 0x80, err
}

// matrices shares edge costs within one Read: every edge line whose
// m·m costs are bit-identical (math.Float64bits, so "0" and "00" are
// one matrix and "0" and "-0" two) gets the same (uv, vu) pair. In the
// zero/∞ regime a graph's edges carry a handful of distinct matrices,
// so the reader allocates per distinct matrix, not per edge. Sharing is
// what the ownership rule (see the package comment) already lets Clone,
// Induced and the solvers' records do: an installed matrix is never
// written again. The key is a hash of the words; a hit is compared bit
// for bit, and a different matrix under a taken key gets a pair of its
// own.
//
// In front of the words sits their text: a line whose bytes after its
// first three fields repeat those of an earlier edge line that got a
// shared pair is that line's costs again, and is not walked at all (see
// spelled). A spelling is kept only once its words have repeated, so a
// graph of distinct matrices copies no text, and the text held is at
// most what was read.
type matrices struct {
	words map[uint64][2]*cost.Matrix
	texts map[string][2]*cost.Matrix
}

// spelled cuts line after its first three fields and looks the rest up
// among the spellings pair kept. The lookup needs those fields to be
// ASCII — then strings.Fields splits the line where they end, and the
// rest alone says how many fields follow and what they decode to — but
// not the directive to be "e": a hit is owed 3+m·m fields, which only an
// edge line may have, so a vertex line that ends in an edge's costs is
// turned away on its count, as walk's count would have turned it away.
// tail is nil when the fields are not three and ASCII.
//
// TestReadAllocatesPerDistinctMatrix holds Read to allocations per distinct matrix.
func (ms *matrices) spelled(line []byte) (tail []byte, p [2]*cost.Matrix, ok bool) {
	rest := line
	for range 3 {
		var f []byte
		if f, rest = cutField(rest); len(f) == 0 {
			return nil, p, false
		}
	}
	for _, c := range line[:len(line)-len(rest)] {
		if c >= 0x80 {
			return nil, p, false
		}
	}
	p, ok = ms.texts[string(rest)]
	return rest, p, ok
}

// pair returns the matrix of the m×m costs, in row-major order, and its
// transpose. When the costs are an earlier line's, tail (if not nil) is
// kept as their spelling.
func (ms *matrices) pair(costs cost.Vector, m int, tail []byte) (uv, vu *cost.Matrix) {
	sum := cost.WordHash(costs)
	p, taken := ms.words[sum]
	if taken && cost.SameBits(p[0].Data, costs) {
		if tail != nil {
			if ms.texts == nil {
				ms.texts = map[string][2]*cost.Matrix{}
			}
			ms.texts[string(tail)] = p
		}
		return p[0], p[1]
	}
	uv = &cost.Matrix{Rows: m, Cols: m, Data: slices.Clone(costs)}
	vu = uv.Transpose()
	if !taken {
		if ms.words == nil {
			ms.words = map[uint64][2]*cost.Matrix{}
		}
		ms.words[sum] = [2]*cost.Matrix{uv, vu}
	}
	return uv, vu
}

// parseCost classifies a cost token that is not a short unsigned
// integer: lowercase "inf" by hand, every other — signs, points,
// exponents, the other spellings of infinity — through one
// strconv.ParseFloat, whose result is both what cost.Parse would have
// classified and what the reserved-range check looks at.
func parseCost(tok []byte) (cost.Cost, error) {
	if string(tok) == "inf" {
		return cost.Inf, nil
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	switch {
	case err != nil || math.IsNaN(f) || math.IsInf(f, -1):
		_, err = cost.Parse(string(tok)) // cost.Parse words its own rejections
		return 0, err
	case math.IsInf(f, 1):
		return cost.Inf, nil
	case cost.Cost(f).IsInf() || cost.Cost(-f).IsInf():
		// A finite literal of magnitude ≥ MaxFloat64/4: positive it
		// would silently behave as "forbidden", negative it breaks the
		// saturating arithmetic. Almost certainly corrupted input.
		return 0, fmt.Errorf("pbqp: finite cost %q is in the reserved infinite range; write \"inf\"", tok)
	}
	return cost.Cost(f), nil
}
