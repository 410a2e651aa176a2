// Package eval is the paper's evaluation harness: it regenerates
// Tables 4-6 and Figures 8-12, the extension tables FS and IP, and the
// scale sweep, through the public tbaa facade. cmd/tbaabench is its
// front end. It lives outside package tbaa so that the library links
// neither the harness nor the generators and timers the sweep needs.
package eval

import (
	"fmt"
	"sync"

	"tbaa"
	"tbaa/internal/bench"
)

// Runner regenerates the paper's tables and figures over a pool of
// workers. Every (benchmark × level × options) configuration is an
// independent cell; cells share one Module per benchmark (building a
// fresh, privately-mutable Analyzer per cell) and results are
// assembled in a fixed order, so the rendered artifacts are
// byte-identical whatever the worker count.
type Runner struct {
	workers int

	mu    sync.Mutex
	cache map[string]*moduleEntry
}

type moduleEntry struct {
	once sync.Once
	m    *tbaa.Module
	err  error
}

// NewRunner returns a Runner with the given worker count; workers <= 0
// selects GOMAXPROCS.
func NewRunner(workers int) *Runner {
	return &Runner{workers: workers, cache: make(map[string]*moduleEntry)}
}

// Module returns the parsed-and-checked module for b. The frontend half
// of the pipeline runs once per benchmark and is shared by every later
// call; concurrent callers for the same benchmark block on one compile.
func (r *Runner) Module(b bench.Benchmark) (*tbaa.Module, error) {
	r.mu.Lock()
	e := r.cache[b.Name]
	if e == nil {
		e = &moduleEntry{}
		r.cache[b.Name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		e.m, e.err = tbaa.Compile(b.Name+".m3", b.Source)
	})
	if e.err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, e.err)
	}
	return e.m, nil
}

// analyzer builds an Analyzer over a fresh lowering of b.
func (r *Runner) analyzer(b bench.Benchmark, options ...tbaa.Option) (*tbaa.Analyzer, error) {
	m, err := r.Module(b)
	if err != nil {
		return nil, err
	}
	a, err := m.NewAnalyzer(options...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	return a, nil
}
