// Trainer-state serialization for fault-tolerant training: EncodeState
// captures everything a resumed run needs to be bit-identical to an
// uninterrupted one — both networks, the Adam moments, the replay
// queue, the master RNG stream, the iteration counter, and the position
// inside an interrupted iteration. The bytes are opaque; pair them with
// internal/checkpoint for atomic, checksummed on-disk storage.
package selfplay

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"sort"

	"pbqprl/internal/cost"
	"pbqprl/internal/gcn"
	"pbqprl/internal/nn"
	"pbqprl/internal/tensor"
)

// pcgSource adapts math/rand/v2's PCG generator — whose state is
// serializable — to math/rand's Source64 interface, so the trainer's
// RNG stream survives a checkpoint/restore round trip exactly. The
// stock math/rand source keeps its state private and cannot be resumed.
type pcgSource struct{ pcg *randv2.PCG }

// pcgStream is the fixed second seed word; the user seed is the first.
const pcgStream = 0x9e3779b97f4a7c15

func newPCGSource(seed int64) *pcgSource {
	return &pcgSource{pcg: randv2.NewPCG(uint64(seed), pcgStream)}
}

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }
func (s *pcgSource) Int63() int64   { return int64(s.pcg.Uint64() >> 1) }
func (s *pcgSource) Seed(seed int64) {
	s.pcg.Seed(uint64(seed), pcgStream)
}
func (s *pcgSource) state() ([]byte, error)  { return s.pcg.MarshalBinary() }
func (s *pcgSource) setState(b []byte) error { return s.pcg.UnmarshalBinary(b) }

// trainerState is the gob payload of a trainer checkpoint.
type trainerState struct {
	Iter           int
	Pending        *IterStats
	PendingEpisode int
	Cur, Best      []byte // net.PBQPNet.SaveBytes
	Adam           nn.AdamState
	RNG            []byte // PCG state
	Replay         []replaySample
}

// replaySample is the self-contained serialized form of a Sample: the
// view's vertex vectors, adjacency, and transformed edge matrices, laid
// out with exported fields for gob. Edge matrices shared between
// samples of one episode are duplicated here; correctness over
// compactness.
type replaySample struct {
	M    int
	Vecs []cost.Vector
	Nbrs [][]int
	Mats [][]edgeMat
	Pi   tensor.Vec
	Z    float64
}

type edgeMat struct {
	J   int
	Mat *tensor.Mat
}

// freezeSample converts a Sample to its serialized form through the
// view's edge table window, so it works for live snapshots and
// already-thawed samples alike. Edge matrices are emitted in sorted
// neighbor order for deterministic encodings.
func freezeSample(s Sample) replaySample {
	v := s.View
	tbl, off := v.EdgeTable()
	out := replaySample{M: v.M(), Pi: s.Pi, Z: s.Z}
	for i := 0; i < v.N(); i++ {
		out.Vecs = append(out.Vecs, v.Vec(i))
		nbrs := tbl.WindowNbrs(off+i, off)
		sort.Ints(nbrs)
		var mats []edgeMat
		for _, j := range nbrs {
			mats = append(mats, edgeMat{J: j, Mat: tbl.MatOf(off+i, off+j)})
		}
		out.Nbrs = append(out.Nbrs, nbrs)
		out.Mats = append(out.Mats, mats)
	}
	return out
}

// packer packs the matrices of one decode, each distinct one once. gob
// gives every decoded *tensor.Mat a pointer of its own, so they meet by
// content, as game.New's cost matrices do: a hash of the words, and on
// a hit a bitwise compare (math.Float64bits, so -0 and +0 stay apart).
// Their edges then share one kernel, as the live game's did. A
// different matrix under a taken hash gets a kernel of its own. The
// hash is cost.WordHash, which rotates each word's high bits down:
// transformed entries such as 0 and 1 differ only in their top bits.
type packer map[uint64]packed

// packed is a kernel with the decoded matrix it was packed from.
type packed struct {
	mat *tensor.Mat
	k   *gcn.Kernel
}

func (p packer) pack(m *tensor.Mat) *gcn.Kernel {
	sum := cost.WordHash(m.W)
	d, taken := p[sum]
	if taken && d.mat.R == m.R && d.mat.C == m.C && slices.EqualFunc(d.mat.W, m.W, sameBits) {
		return d.k
	}
	k := gcn.Pack(m)
	if !taken {
		p[sum] = packed{m, k}
	}
	return k
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// thaw reverses freezeSample into the view game.Snapshot returns, a
// frozen gcn.View, over a small edge table of the sample's own, with
// its matrices packed by p: a restored sample trains like a live
// snapshot.
func (p packer) thaw(rs replaySample) Sample {
	tbl := &gcn.EdgeTable{Start: make([]int32, 1, len(rs.Mats)+1)}
	for _, mats := range rs.Mats {
		for _, em := range mats {
			tbl.AddEdge(em.J, p.pack(em.Mat))
		}
		tbl.Start = append(tbl.Start, int32(len(tbl.Nbr)))
	}
	return Sample{View: gcn.NewView(tbl, 0, rs.M, rs.Vecs).Freeze(), Pi: rs.Pi, Z: rs.Z}
}

// EncodeSamples serializes training samples on their own, outside a
// checkpoint; the tests that compare a thawed view against a live
// snapshot build theirs through it. It uses the same frozen form as
// checkpoints (sorted neighbor order, gob), so the encoding is
// deterministic and a decoded sample trains bit-identically to the live
// snapshot it came from.
func EncodeSamples(samples []Sample) ([]byte, error) {
	frozen := make([]replaySample, 0, len(samples))
	for _, s := range samples {
		frozen = append(frozen, freezeSample(s))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(frozen); err != nil {
		return nil, fmt.Errorf("selfplay: encode samples: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSamples reverses EncodeSamples.
func DecodeSamples(data []byte) ([]Sample, error) {
	var frozen []replaySample
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&frozen); err != nil {
		return nil, fmt.Errorf("selfplay: decode samples: %w", err)
	}
	samples := make([]Sample, 0, len(frozen))
	p := packer{}
	for _, rs := range frozen {
		samples = append(samples, p.thaw(rs))
	}
	return samples, nil
}

// EncodeState serializes the full trainer state. It refuses to encode a
// diverged (NaN/Inf) network so that a poisoned state can never reach a
// checkpoint.
func (t *Trainer) EncodeState() ([]byte, error) {
	if err := t.checkFinite(); err != nil {
		return nil, fmt.Errorf("selfplay: refusing to checkpoint: %w", err)
	}
	cur, err := t.cur.SaveBytes()
	if err != nil {
		return nil, err
	}
	best, err := t.best.SaveBytes()
	if err != nil {
		return nil, err
	}
	rng, err := t.src.state()
	if err != nil {
		return nil, err
	}
	st := trainerState{
		Iter:           t.iter,
		Pending:        t.pending,
		PendingEpisode: t.pendingEpisode,
		Cur:            cur,
		Best:           best,
		Adam:           t.opt.State(t.cur.Params()),
		RNG:            rng,
	}
	// logical (oldest-first) order, so the encoding is byte-identical
	// to the pre-ring-buffer slice layout and v1 checkpoints round-trip
	for i := 0; i < t.replay.len(); i++ {
		st.Replay = append(st.Replay, freezeSample(t.replay.at(i)))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("selfplay: encode state: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeState restores a state produced by EncodeState into a trainer
// built with the same Config and network architecture, replacing its
// networks, optimizer moments, replay queue, RNG stream, and iteration
// position. On error the trainer may be partially modified and should
// be discarded.
func (t *Trainer) DecodeState(data []byte) error {
	var st trainerState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("selfplay: decode state: %w", err)
	}
	if err := t.cur.LoadBytes(st.Cur); err != nil {
		return fmt.Errorf("selfplay: restore current network: %w", err)
	}
	if err := t.best.LoadBytes(st.Best); err != nil {
		return fmt.Errorf("selfplay: restore best network: %w", err)
	}
	if err := t.opt.LoadState(t.cur.Params(), st.Adam); err != nil {
		return fmt.Errorf("selfplay: restore optimizer: %w", err)
	}
	if err := t.src.setState(st.RNG); err != nil {
		return fmt.Errorf("selfplay: restore rng: %w", err)
	}
	t.rng = rand.New(t.src)
	t.iter = st.Iter
	t.pending, t.pendingEpisode = st.Pending, st.PendingEpisode
	t.replay.reset()
	t.replay.setCap(t.cfg.ReplayCap)
	p := packer{}
	for _, rs := range st.Replay {
		t.replay.push(p.thaw(rs))
	}
	return nil
}
