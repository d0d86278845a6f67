package selfplay

import (
	"testing"

	"pbqprl/internal/ate"
	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/tensor"
)

// thawSample thaws one sample on its own, with a packer of its own.
func thawSample(rs replaySample) Sample { return packer{}.thaw(rs) }

// kernels returns the distinct kernels of v's window.
func kernels(v gcn.View, into map[*gcn.Kernel]bool) map[*gcn.Kernel]bool {
	tbl, off := v.EdgeTable()
	for i := 0; i < v.N(); i++ {
		lo, hi := tbl.From(off+i, off)
		for _, k := range tbl.Kern[lo:hi] {
			into[k] = true
		}
	}
	return into
}

// TestThawSharesKernelsLikeLiveSnapshot decodes snapshots of a 60-vreg
// ATE game, whose hundreds of edges carry a handful of matrices: each
// thawed sample has as many distinct kernels as its live snapshot, and
// the samples of one decode share them as the game's snapshots do.
func TestThawSharesKernelsLikeLiveSnapshot(t *testing.T) {
	prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
		Name: "t", NumVRegs: 60, PairRatio: 0.3, HardRatio: 0.4, Seed: 5,
	})
	g, err := ate.BuildPBQP(prog)
	if err != nil {
		t.Fatal(err)
	}
	st := game.New(g, game.MakeOrder(g, game.OrderIncLiberty, nil))
	var live []Sample
	for len(live) < 4 && !st.Done() {
		live = append(live, Sample{View: st.Snapshot(), Pi: tensor.NewVec(st.M())})
		for c := 0; c < st.M(); c++ {
			if st.Legal(c) {
				st.Play(c)
				break
			}
		}
	}
	wire, err := EncodeSamples(live)
	if err != nil {
		t.Fatal(err)
	}
	thawed, err := DecodeSamples(wire)
	if err != nil {
		t.Fatal(err)
	}
	allLive, allThawed := map[*gcn.Kernel]bool{}, map[*gcn.Kernel]bool{}
	for i := range live {
		want, got := len(kernels(live[i].View, map[*gcn.Kernel]bool{})), len(kernels(thawed[i].View, map[*gcn.Kernel]bool{}))
		if got != want {
			t.Fatalf("sample %d thaws to %d distinct kernels, its live snapshot has %d", i, got, want)
		}
		kernels(live[i].View, allLive)
		kernels(thawed[i].View, allThawed)
	}
	if len(allThawed) != len(allLive) || len(allLive) > 8 {
		t.Fatalf("%d decoded samples hold %d distinct kernels, the live snapshots %d (want equal, at most 8)",
			len(live), len(allThawed), len(allLive))
	}
}
