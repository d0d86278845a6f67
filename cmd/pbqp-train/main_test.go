package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pbqprl/internal/checkpoint"
	"pbqprl/internal/experiments"
	"pbqprl/internal/net"
	"pbqprl/internal/selfplay"
)

// train runs pbqp-train in process and fails the test unless it exits
// with want.
func train(t *testing.T, want int, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(args, &out, &errs); code != want {
		t.Fatalf("pbqp-train %s: exit code %d, want %d\nstderr:\n%s", strings.Join(args, " "), code, want, errs.String())
	}
	return out.String(), errs.String()
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-regime", "nope"}, `unknown regime "nope" (want ate or er)`},
		{[]string{"-worker", "http://x"}, "flag provided but not defined: -worker"},
		{[]string{"-iters", "1", "10"}, `unexpected argument "10"`},
	} {
		stdout, stderr := train(t, 2, tc.args...)
		if !strings.Contains(stderr, tc.want) || !strings.Contains(stderr, "Usage of pbqp-train:") {
			t.Errorf("%v: stderr lacks %q or the usage:\n%s", tc.args, tc.want, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: usage error wrote to stdout: %q", tc.args, stdout)
		}
	}
}

// TestHelpExitsZero: asking for the usage is not a usage error.
func TestHelpExitsZero(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // a flag the usage must name
	}{
		{"help", []string{"-help"}, "-regime"},
	} {
		stdout, stderr := train(t, exitOK, tc.args...)
		if !strings.Contains(stderr, "Usage of pbqp-train:") || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stderr lacks the usage or %q:\n%s", tc.name, tc.want, stderr)
		}
		if stdout != "" {
			t.Errorf("%s: wrote to stdout: %q", tc.name, stdout)
		}
	}
}

// checkpointSHA pins, per regime, the SHA-256 of the checkpoint that
// `-iters 1 -episodes 2 -ktrain 2 -mean-n 10` (seed 1) writes — replay
// queue, Adam moments, RNG position: selfplayConfig's constants are the
// training distribution, and moving the function must not move them.
// (-out would pin nothing: an iteration that promotes no candidate
// discards it, so -out holds the initial network under either regime.)
// A change of the checkpoint container re-records these together with
// selfplay's TestEncodedBytesUnchanged.
var checkpointSHA = map[string]string{
	"ate": "79f2ea032cbe9b32544a9afb4191b5bb20e6bf5bcf4c2df1b04edb36deb0c005",
	"er":  "1eeb671514ac50550754781c5e83151b703a68018a8d79c820dc1a65735d6529",
}

// TestTinyRun drives one iteration per regime from -resume on an empty
// directory to the saved network: the run starts fresh, writes -out and
// a checkpoint with the pinned bytes, and logs what the checkpoint cost
// without that timing reaching those bytes.
func TestTinyRun(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned digests were computed on amd64")
	}
	for regime, want := range checkpointSHA {
		dir := t.TempDir()
		out, ckpts := filepath.Join(dir, "net.gob"), filepath.Join(dir, "ck")
		stdout, stderr := train(t, 0, "-regime", regime, "-iters", "1", "-episodes", "2", "-ktrain", "2", "-mean-n", "10",
			"-resume", "-checkpoint-dir", ckpts, "-out", out)
		if !strings.Contains(stderr, "no checkpoint in "+ckpts+"; starting fresh") {
			t.Errorf("%s: -resume on an empty directory did not log a fresh start:\n%s", regime, stderr)
		}
		if !strings.Contains(stdout, "iter 1: ") || !strings.Contains(stdout, "saved best network to "+out) {
			t.Errorf("%s: stdout %q lacks the iteration line or the saved-network line", regime, stdout)
		}

		payload, err := checkpoint.Read(filepath.Join(ckpts, "ckpt-00000001.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf("checkpoint 1: %d bytes, encode ", len(payload))
		if !strings.Contains(stderr, line) || !strings.Contains(stderr, "s, write ") {
			t.Errorf("%s: no %q… line with encode and write seconds in:\n%s", regime, line, stderr)
		}
		// The same iteration on a trainer nobody times or logs.
		cfg, err := selfplayConfig(regime, 10, 2, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		silent, err := selfplay.NewTrainer(net.New(experiments.DefaultNetConfig()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := silent.RunIteration(context.Background()); err != nil {
			t.Fatal(err)
		}
		if untimed, err := silent.EncodeState(); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(payload, untimed) {
			t.Errorf("%s: checkpoint 1 differs from EncodeState of an untimed trainer", regime)
		}

		if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: SHA-256 of checkpoint 1 = %x, want %s", regime, sum, want)
		}
		if written, err := os.ReadFile(out); err != nil {
			t.Fatal(err)
		} else if best, err := silent.Best().SaveBytes(); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(written, best) {
			t.Errorf("%s: -out is not the best network", regime)
		}
	}
}
