package par

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
)

var (
	workerCounts = []int{0, 1, 2, 7}
	sizes        = []int{0, 1, 5, 64}
)

// TestDoWorkerCountsRunEachIndexOnce: every index of [0, n) runs exactly
// once, on a worker numbered below min(workers, n), and Do returns n.
func TestDoWorkerCountsRunEachIndexOnce(t *testing.T) {
	for _, workers := range workerCounts {
		for _, n := range sizes {
			runs := make([]atomic.Int32, n)
			var badW atomic.Int64
			badW.Store(-1)
			k := Do(context.Background(), workers, n, func(w, i int) {
				if w < 0 || w >= max(min(workers, n), 1) {
					badW.Store(int64(w))
				}
				runs[i].Add(1)
			})
			if k != n {
				t.Errorf("workers=%d n=%d: Do returned %d", workers, n, k)
			}
			if w := badW.Load(); w >= 0 {
				t.Errorf("workers=%d n=%d: work ran on worker %d", workers, n, w)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestDoOneWorkerIsALoop: with workers ≤ 1 the caller's goroutine runs
// every index itself, in increasing order.
func TestDoOneWorkerIsALoop(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var got []int
		Do(context.Background(), workers, 64, func(w, i int) {
			if w != 0 {
				t.Fatalf("workers=%d: work ran on worker %d", workers, w)
			}
			got = append(got, i)
		})
		for j, i := range got {
			if i != j {
				t.Fatalf("workers=%d: call %d ran index %d", workers, j, i)
			}
		}
		if len(got) != 64 {
			t.Fatalf("workers=%d: ran %d of 64 indices", workers, len(got))
		}
	}
}

// TestDoInterrupt cancels ctx from inside work at a random index: Do
// returns k, exactly [0, k) ran, and k covers the cancelling index. With
// one worker nothing past that index is claimed.
func TestDoInterrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, workers := range workerCounts {
		for trial := 0; trial < 20; trial++ {
			const n = 64
			at := rng.Intn(n)
			ctx, cancel := context.WithCancel(context.Background())
			runs := make([]atomic.Int32, n)
			k := Do(ctx, workers, n, func(_, i int) {
				runs[i].Add(1)
				if i == at {
					cancel()
				}
			})
			cancel()
			if k <= at || k > n {
				t.Fatalf("workers=%d cancel at %d: Do returned %d", workers, at, k)
			}
			if workers <= 1 && k != at+1 {
				t.Fatalf("workers=%d cancel at %d: Do returned %d, want %d", workers, at, k, at+1)
			}
			for i := range runs {
				want := int32(0)
				if i < k {
					want = 1
				}
				if c := runs[i].Load(); c != want {
					t.Fatalf("workers=%d cancel at %d, k=%d: index %d ran %d times", workers, at, k, i, c)
				}
			}
		}
	}
}

// TestDoPreCancelled: a context that is already done claims nothing.
func TestDoPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range workerCounts {
		for _, n := range sizes {
			var ran atomic.Int32
			if k := Do(ctx, workers, n, func(_, _ int) { ran.Add(1) }); k != 0 || ran.Load() != 0 {
				t.Errorf("workers=%d n=%d: returned %d after running %d", workers, n, k, ran.Load())
			}
		}
	}
}

// TestGoJoinsEveryHelper: the wait Go returns does not return before
// every helper has.
func TestGoJoinsEveryHelper(t *testing.T) {
	for _, helpers := range []int{0, 1, 5} {
		var done atomic.Int32
		Go(helpers, func() { done.Add(1) })()
		if got := done.Load(); got != int32(helpers) {
			t.Errorf("helpers=%d: %d returned before wait did", helpers, got)
		}
	}
}
