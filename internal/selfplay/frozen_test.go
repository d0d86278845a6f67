package selfplay

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"testing"

	"pbqprl/internal/gcn"
	"pbqprl/internal/tensor"
)

// The SHA-256 of EncodeSamples over the whole replay, then of
// EncodeState, after one iteration of poolTrainer(17, 1), computed at
// the commit before snapshots and thawed samples became gcn.FrozenView
// (amd64, like goldenNetSHA).
const (
	goldenSamplesSHA = "2cb9d0b35d968abb75eab20073f4806ed1318d33b7212ff45f651c1db4b1dbf7"
	goldenStateSHA   = "8411a60249642f751ea0684b0b22b2814829bff864c72e6b8e2f3fad90869ac9"
)

// TestEncodedBytesUnchanged pins the checkpoint and EncodeSamples bytes
// across the change of view type underneath them: freezeSample reads a
// snapshot through Nbrs and Mat, and what it reads must encode as it
// did when the snapshot kept per-vertex slices and maps. gob numbers
// the types of a stream in the order the process first met them, so
// the bytes are pinned in a process that has encoded nothing else: the
// test re-executes itself alone unless it already is.
func TestEncodedBytesUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes were computed on amd64")
	}
	const alone = "^TestEncodedBytesUnchanged$"
	if flag.Lookup("test.run").Value.String() != alone {
		if out, err := exec.Command(os.Args[0], "-test.run="+alone).CombinedOutput(); err != nil {
			t.Fatalf("in a process of its own: %v\n%s", err, out)
		}
		return
	}
	tr := poolTrainer(t, 17, 1)
	runIters(t, tr, 1)
	var samples []Sample
	for i := 0; i < tr.replay.len(); i++ {
		samples = append(samples, tr.replay.at(i))
	}
	wire, err := EncodeSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		data []byte
		want string
	}{{"EncodeSamples", wire, goldenSamplesSHA}, {"EncodeState", encodeBytes(t, tr), goldenStateSHA}} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("SHA-256 of %s = %s, want %s", c.what, got, c.want)
		}
	}
}

// TestThawedSampleTrainsLikeLiveSnapshot drives a live snapshot and its
// freeze→thaw copy through one GCN each: the embedding rows and every
// gradient tensor must agree bit for bit, and the copy must be frozen,
// as the snapshot is.
func TestThawedSampleTrainsLikeLiveSnapshot(t *testing.T) {
	tr := poolTrainer(t, 19, 1)
	runIters(t, tr, 1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < tr.replay.len(); i++ {
		live := tr.replay.at(i)
		thawed := thawSample(freezeSample(live))
		if !thawed.View.Frozen() {
			t.Fatalf("sample %d thaws to a live view, not a frozen one like the snapshot", i)
		}
		dH := make([]tensor.Vec, live.View.N())
		for v := range dH {
			dH[v] = make(tensor.Vec, live.View.M())
			for j := range dH[v] {
				dH[v][j] = rng.NormFloat64()
			}
		}
		a, b := gcn.New(rand.New(rand.NewSource(5)), live.View.M(), 3), gcn.New(rand.New(rand.NewSource(5)), live.View.M(), 3)
		var ta, tb gcn.Tape
		a.ForwardTape(&ta, live.View)
		b.ForwardTape(&tb, thawed.View)
		ha, hb := ta.Rows(), tb.Rows()
		a.Backprop(&ta, dH)
		a.Accumulate(&ta)
		b.Backprop(&tb, dH)
		b.Accumulate(&tb)
		if len(ha) != len(hb) {
			t.Fatalf("sample %d: %d rows thawed, %d live", i, len(hb), len(ha))
		}
		for v := range ha {
			for j := range ha[v] {
				if math.Float64bits(ha[v][j]) != math.Float64bits(hb[v][j]) {
					t.Fatalf("sample %d row %d col %d: thawed %v, live %v", i, v, j, hb[v][j], ha[v][j])
				}
			}
		}
		pa, pb := a.Params(), b.Params()
		for k := range pa {
			for j := range pa[k].G {
				if math.Float64bits(pa[k].G[j]) != math.Float64bits(pb[k].G[j]) {
					t.Fatalf("sample %d %s grad[%d]: thawed %v, live %v", i, pa[k].Name, j, pb[k].G[j], pa[k].G[j])
				}
			}
		}
	}
}
