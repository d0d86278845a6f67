package selfplay

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"pbqprl/internal/net"
)

// goldenNetSHA is the SHA-256 of the current and best networks after the fixed
// job below, computed at the commit before (*net.PBQPNet).Evaluate
// moved onto the inference engine (amd64; other architectures may
// round math.Exp differently).
const goldenNetSHA = "262c5e93bd684d389edeb8bc19c523a1ea850d2a838f5b9d28d100bd76054767"

// TestSelfplayGoldenNetwork pins self-play bit-identity across the
// evaluator switch: episodes and arena games search on the engine,
// gradient steps run the trainable pass, and the trained weights must
// come out exactly as they did when both were the trainable pass.
func TestSelfplayGoldenNetwork(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hash was computed on amd64")
	}
	tr := poolTrainer(t, 31, 1)
	runIters(t, tr, 2)
	h := sha256.New()
	for _, n := range []*net.PBQPNet{tr.Current(), tr.Best()} {
		data, err := n.SaveBytes()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenNetSHA {
		t.Fatalf("SHA-256 of current‖best after 2 iterations = %s, want %s", got, goldenNetSHA)
	}
}
