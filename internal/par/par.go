// Package par runs independent tasks across a worker pool sized by
// GOMAXPROCS, or by an explicit worker count. The pair counter, the
// optimizer's per-procedure passes and the evaluation harness's cells
// share it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers caps a worker pool at GOMAXPROCS and the task count.
func Workers(n int) int { return capped(runtime.GOMAXPROCS(0), n) }

func capped(w, n int) int {
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Do runs fn(0..n-1) across a GOMAXPROCS worker pool; with one worker
// (or one task) it degrades to a plain loop. Tasks are handed out in
// index order, so callers that write results into per-index slots get
// output independent of the worker count.
func Do(n int, fn func(i int)) { do(Workers(n), n, fn) }

// Run is Do on at most workers goroutines (GOMAXPROCS when workers <=
// 0) for tasks that can fail. Every task runs, and the error of the
// lowest-numbered failing task is returned — the one a left-to-right
// loop would have reported — whatever the worker count.
func Run(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	do(capped(workers, n), n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func do(workers, n int, fn func(i int)) {
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
