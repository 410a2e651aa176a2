// Package par runs independent tasks across a worker pool sized by
// GOMAXPROCS. The pair counter and the optimizer's per-procedure passes
// share it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers caps a worker pool at GOMAXPROCS and the task count.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Do runs fn(0..n-1) across a worker pool; with one worker (or one
// task) it degrades to a plain loop. Tasks are handed out in index
// order, so callers that write results into per-index slots get output
// independent of the worker count.
func Do(n int, fn func(i int)) {
	workers := Workers(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
