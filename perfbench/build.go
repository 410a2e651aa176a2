package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"tbaa"
)

// buildMod is one module of the build corpus with what its timed
// operations are checked against.
type buildMod struct {
	m        *module
	compiled *tbaa.Module // compiled once, for the warm starts
	cacheDir string
	// Set by the first iteration; later iterations must agree.
	counts  *tbaa.PairCounts
	removed int
}

// buildSample is one iteration's timings, summed over the corpus.
type buildSample struct {
	cold, opt, countpairs time.Duration
	warm                  []time.Duration // one per warm start of the corpus
	heapMB                float64
}

// warmStarts is how many times an iteration warm-starts the corpus. A
// warm start costs a small share of an iteration, so repeating it gives
// its median more samples at little cost.
const warmStarts = 3

var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeapMB collects garbage and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	metrics.Read(liveSample)
	return float64(liveSample[0].Value.Uint64()) / (1 << 20)
}

// seedArtifacts is the build phase's set-up: one from-scratch
// SMFieldTypeRefs build per module that writes its artifact into a
// fresh cache directory.
func seedArtifacts(bms []*buildMod, dir string) (time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, b := range bms {
		a, err := b.compiled.NewAnalyzer(tbaa.WithLevel(tbaa.SMFieldTypeRefs), tbaa.WithArtifactCache(dir))
		if err != nil {
			return 0, err
		}
		if a.ArtifactStatus() != tbaa.ArtifactMiss {
			return 0, fmt.Errorf("%s: seeding found artifact status %v", b.m.name, a.ArtifactStatus())
		}
		b.cacheDir = dir
	}
	return time.Since(t0), nil
}

// firstVerdict asks the pool's first pair, the "first verdict" every
// build is timed to.
func firstVerdict(b *buildMod, a *tbaa.Analyzer) (bool, error) {
	p := b.m.pool[0]
	return a.MayAlias(p.P, p.Q)
}

// coldBuild is source text to first verdict at SMFieldTypeRefs.
func coldBuild(b *buildMod) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	mod, err := tbaa.Compile(b.m.name, b.m.src)
	if err != nil {
		return 0, err
	}
	a, err := mod.NewAnalyzer(tbaa.WithLevel(tbaa.SMFieldTypeRefs))
	if err != nil {
		return 0, err
	}
	v, err := firstVerdict(b, a)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if v != b.m.ref[0][0][0] {
		return 0, fmt.Errorf("%s: cold first verdict %v, reference %v", b.m.name, v, !v)
	}
	return d, nil
}

// optBuild is source text to first verdict at IPTypeRefs with RLE. It
// returns the analyzer so the caller can time CountPairs on it and
// measure what it retains. The caller collects garbage first.
func optBuild(b *buildMod) (time.Duration, *tbaa.Analyzer, error) {
	t0 := time.Now()
	mod, err := tbaa.Compile(b.m.name, b.m.src)
	if err != nil {
		return 0, nil, err
	}
	a, err := mod.NewAnalyzer(tbaa.WithLevel(tbaa.IPTypeRefs), tbaa.WithPasses(tbaa.RLE()))
	if err != nil {
		return 0, nil, err
	}
	if _, err := firstVerdict(b, a); err != nil {
		return 0, nil, err
	}
	d := time.Since(t0)
	removed := a.PassResults()[0].Removed()
	if b.counts != nil && removed != b.removed {
		return 0, nil, fmt.Errorf("%s: RLE removed %d loads, first iteration %d", b.m.name, removed, b.removed)
	}
	b.removed = removed
	return d, a, nil
}

// warmStart is artifact to first verdict.
func warmStart(b *buildMod) (time.Duration, *tbaa.Analyzer, error) {
	runtime.GC()
	t0 := time.Now()
	a, err := b.compiled.NewAnalyzer(tbaa.WithLevel(tbaa.SMFieldTypeRefs), tbaa.WithArtifactCache(b.cacheDir))
	if err != nil {
		return 0, nil, err
	}
	v, err := firstVerdict(b, a)
	d := time.Since(t0)
	if err != nil {
		return 0, nil, err
	}
	if a.ArtifactStatus() != tbaa.ArtifactHit {
		return 0, nil, fmt.Errorf("%s: warm start reported %v", b.m.name, a.ArtifactStatus())
	}
	if v != b.m.ref[0][0][0] {
		return 0, nil, fmt.Errorf("%s: warm first verdict differs from cold", b.m.name)
	}
	return d, a, nil
}

// checkPool compares an analyzer's verdicts on the whole pool with the
// from-scratch reference at state 0 and level index li.
func checkPool(b *buildMod, a *tbaa.Analyzer, li int) error {
	for i, v := range a.MayAliasBatch(context.Background(), b.m.pool) {
		if v.Err != nil || v.MayAlias != b.m.ref[0][li][i] {
			return fmt.Errorf("%s: verdict for (%s, %s) differs from the reference", b.m.name, v.Pair.P, v.Pair.Q)
		}
	}
	return nil
}

// countPairs times CountPairs on the optimized IP analyzer; every
// iteration must count what the first did.
func countPairs(b *buildMod, a *tbaa.Analyzer) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	pc := a.CountPairs()
	d := time.Since(t0)
	if b.counts == nil {
		b.counts = &pc
	} else if *b.counts != pc {
		return 0, fmt.Errorf("%s: CountPairs %+v, first iteration %+v", b.m.name, pc, *b.counts)
	}
	return d, nil
}

// buildIteration runs the four timed operations over the corpus. The
// order of cold and opt alternates between iterations, because
// whichever runs first pays for growing the heap. checkRun also
// executes the optimized and unoptimized programs, outside the timed
// operations, and compares their output.
func buildIteration(bms []*buildMod, coldFirst, checkRun bool) (buildSample, error) {
	var s buildSample
	cold := func() error {
		for _, b := range bms {
			d, err := coldBuild(b)
			if err != nil {
				return err
			}
			s.cold += d
		}
		return nil
	}
	opt := func() error {
		for _, b := range bms {
			base := liveHeapMB() // collects garbage before the timed build
			d, a, err := optBuild(b)
			if err != nil {
				return err
			}
			s.opt += d
			cp, err := countPairs(b, a)
			if err != nil {
				return err
			}
			s.countpairs += cp
			s.heapMB += liveHeapMB() - base
			if checkRun && !b.m.interactive {
				if err := checkOptimizedRun(b, a); err != nil {
					return err
				}
			}
			runtime.KeepAlive(a)
		}
		return nil
	}
	first, second := cold, opt
	if !coldFirst {
		first, second = opt, cold
	}
	if err := first(); err != nil {
		return s, err
	}
	if err := second(); err != nil {
		return s, err
	}
	for k := 0; k < warmStarts; k++ {
		var warm time.Duration
		for _, b := range bms {
			d, a, err := warmStart(b)
			if err != nil {
				return s, err
			}
			warm += d
			if err := checkPool(b, a, 0); err != nil {
				return s, err
			}
		}
		s.warm = append(s.warm, warm)
	}
	return s, nil
}

// checkOptimizedRun executes the RLE-optimized program and the
// unoptimized one and requires equal output.
func checkOptimizedRun(b *buildMod, opt *tbaa.Analyzer) error {
	plain, err := b.compiled.NewAnalyzer(tbaa.WithLevel(tbaa.SMFieldTypeRefs))
	if err != nil {
		return err
	}
	want, _, err := plain.Run()
	if err != nil {
		return fmt.Errorf("%s: unoptimized run: %w", b.m.name, err)
	}
	got, _, err := opt.Run()
	if err != nil {
		return fmt.Errorf("%s: optimized run: %w", b.m.name, err)
	}
	if got != want {
		return fmt.Errorf("%s: RLE-optimized output differs from the unoptimized output", b.m.name)
	}
	return nil
}

// compileBuildMods compiles each build-corpus module once, for the warm
// starts and the run check.
func compileBuildMods(mods []*module) ([]*buildMod, error) {
	var out []*buildMod
	for _, m := range mods {
		c, err := tbaa.Compile(m.name, m.src)
		if err != nil {
			return nil, err
		}
		out = append(out, &buildMod{m: m, compiled: c})
	}
	return out, nil
}
