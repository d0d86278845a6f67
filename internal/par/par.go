// Package par fans independent work out over goroutines, the caller's
// among them. Self-play episodes and arena games, the gradient step's
// embed and back-propagation phases, decomp's components and the
// router's health probes all go through it.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// Go runs work on helpers new goroutines and returns the function that
// waits for all of them to return.
func Go(helpers int, work func()) (wait func()) {
	var wg sync.WaitGroup
	for h := 0; h < helpers; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	return wg.Wait
}

// Do runs work(w, i) for the indices i of [0, n) on min(workers, n)
// goroutines, numbered w. The caller's goroutine is w = 0, and it is the
// only one when workers ≤ 1. Indices are claimed in increasing order, and
// none is claimed once ctx is done; every claimed index runs to completion
// before Do returns. The claimed indices are therefore a prefix [0, k),
// and Do returns k.
func Do(ctx context.Context, workers, n int, work func(w, i int)) int {
	var next, ids atomic.Int64
	run := func(w int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			work(w, i)
		}
	}
	wait := Go(min(workers, n)-1, func() { run(int(ids.Add(1))) })
	run(0)
	wait()
	return min(int(next.Load()), n)
}
