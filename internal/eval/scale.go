package eval

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"tbaa"
	"tbaa/internal/alias"
	"tbaa/internal/bench"
	"tbaa/internal/driver"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
	"tbaa/internal/randprog"
)

// This file implements the scale sweep behind `tbaabench -scalejson`
// (CI stores it as BENCH_scale.json): generated modules one and two
// orders of magnitude larger than the paper's suite, measured per
// analysis level for compile, summary-construction, analyzer-build,
// MayAlias, CountPairs, and one-procedure incremental-rebuild cost.
// cmd/benchguard -scale fits log-log
// growth exponents across the module sizes and fails CI when per-query
// cost stops being ~flat in module size or a build stage goes
// superlinear past the committed baseline
// (testdata/bench_scale_baseline.json) — making the partition and SCC
// results of earlier PRs an enforced invariant instead of a snapshot.

// scaleSeed fixes the generated corpus: the sweep must measure the
// same programs on every machine for exponents to be comparable.
const scaleSeed = 1

// scaleSizes returns the module-size sweep in target source lines. The
// trimmed per-PR sweep keeps the 10x span the gate needs with two
// points; the full (nightly) sweep adds the midpoint.
func scaleSizes(full bool) []int {
	if full {
		return []int{10_000, 32_000, 100_000}
	}
	return []int{10_000, 100_000}
}

// scaleMegaBenchmark is the checked-in program-shaped companion of the
// generated corpus, measured alongside it (not exponent-gated — one
// program has no growth curve).
const scaleMegaBenchmark = "lower-vm"

// ScaleRow is one measured (module, level, op) cell of the sweep.
type ScaleRow struct {
	// Benchmark identifies the module: "randprog-<target>" or a named
	// program such as "lower-vm".
	Benchmark string `json:"benchmark"`
	// TargetLines is the generator's line budget (0 for named programs);
	// Lines is the actual module size.
	TargetLines int `json:"target_lines,omitempty"`
	Lines       int `json:"lines"`
	// Procs, Refs, and Paths describe the analyzed program: procedure
	// count, static heap references, distinct access paths.
	Procs int `json:"procs"`
	Refs  int `json:"refs"`
	Paths int `json:"paths"`
	// Level is the analysis level, or "-" for level-independent ops.
	Level string `json:"level"`
	// Op names the measured stage: Compile, SummaryCHA, SummaryRTA,
	// AnalyzerBuild, AnalyzerWarmStart, MayAliasHot, MayAliasRand,
	// CountPairs, CountPairsPerRef, RebuildOneProc.
	Op      string  `json:"op"`
	NsPerOp float64 `json:"ns_per_op"`
}

// scaleLevels is the level sweep: the paper's three plus both
// extensions.
func scaleLevels() []tbaa.Level {
	return []tbaa.Level{tbaa.TypeDecl, tbaa.FieldTypeDecl, tbaa.SMFieldTypeRefs, tbaa.FSTypeRefs, tbaa.IPTypeRefs}
}

// scaleEditProc extracts the first top-level PROCEDURE declaration of
// src, verbatim — the one-procedure edit the RebuildOneProc row
// re-installs. Re-installing a body the module already has leaves
// every verdict and fact table unchanged, so the row times a pure
// delta: check one body, re-lower it, incrementally invalidate,
// republish the snapshot.
func scaleEditProc(src string) (string, error) {
	const kw = "\nPROCEDURE "
	start := strings.Index(src, kw)
	if start < 0 {
		return "", fmt.Errorf("module has no PROCEDURE declaration to edit")
	}
	start++ // keep the declaration, drop the leading newline
	name := src[start+len(kw)-1:]
	for i, r := range name {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			name = name[:i]
			break
		}
	}
	endMark := "\nEND " + name + ";"
	end := strings.Index(src[start:], endMark)
	if end < 0 {
		return "", fmt.Errorf("procedure %s has no matching END", name)
	}
	return src[start : start+end+len(endMark)], nil
}

// minDuration returns the fastest of reps runs of fn — the stable
// statistic for one-shot build timings. Each rep starts from a
// collected heap: the sweep runs many stages in one process, and
// without the barrier a stage inherits GC debt from its predecessors,
// skewing the fitted exponents.
func minDuration(reps int, fn func() error) (time.Duration, error) {
	best := time.Duration(-1)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); best < 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// MeasureScale measures the scale corpus: every generated sweep size
// plus the lower-vm megabenchmark, at every level. full selects the
// nightly size sweep. It takes on the order of a minute for the
// trimmed sweep.
func MeasureScale(full bool) ([]ScaleRow, error) {
	var rows []ScaleRow
	for _, target := range scaleSizes(full) {
		src := randprog.GenerateScale(scaleSeed, randprog.ScaleConfigForLines(target))
		name := fmt.Sprintf("randprog-%d", target)
		r, err := measureScaleModule(name, target, src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, r...)
	}
	if mega, ok := bench.ByName(scaleMegaBenchmark); ok {
		r, err := measureScaleModule(mega.Name, 0, mega.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mega.Name, err)
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func measureScaleModule(name string, target int, src string) ([]ScaleRow, error) {
	lines := strings.Count(src, "\n")
	var mod *tbaa.Module
	compileT, err := minDuration(3, func() error {
		m, err := tbaa.Compile(name+".m3", src)
		mod = m
		return err
	})
	if err != nil {
		return nil, err
	}
	// Warm-start companion: a pristine second Module over its own
	// artifact directory. The RebuildOneProc rows below edit mod in
	// place, which (correctly) disables its artifact cacheability — so
	// the warm rows need a module no edit ever touches.
	warmMod, err := tbaa.Compile(name+".m3", src)
	if err != nil {
		return nil, err
	}
	artDir, err := os.MkdirTemp("", "tbaa-scale-artifacts-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(artDir)

	base := ScaleRow{Benchmark: name, TargetLines: target, Lines: lines, Level: "-"}
	row := func(level, op string, ns float64) ScaleRow {
		r := base
		r.Level = level
		r.Op = op
		r.NsPerOp = ns
		return r
	}

	// Level-independent stages: the frontend and both mod-ref summary
	// constructions, on a private lowering.
	prog, _, err := driver.Compile(name+".m3", src)
	if err != nil {
		return nil, err
	}
	base.Procs = len(prog.Procs)
	base.Refs = len(alias.References(prog))
	_ = ir.InternAPs(prog)
	chaT, err := minDuration(3, func() error { modref.Compute(prog); return nil })
	if err != nil {
		return nil, err
	}
	rtaT, err := minDuration(3, func() error {
		modref.ComputeWith(prog, modref.Config{RTA: true})
		return nil
	})
	if err != nil {
		return nil, err
	}

	var rows []ScaleRow
	for _, lvl := range scaleLevels() {
		// AnalyzerWarmStart: decode the persisted snapshot instead of
		// re-analyzing. Seed the artifact with one cold written build,
		// then time warm builds end-to-end through the first query —
		// the same coverage AnalyzerBuild pays, so the ratio gate
		// (guard.DefaultScalePolicy) compares like with like. Warm is
		// measured before the retained cold analyzer exists: both
		// measurements then run against the same live heap (the two
		// modules' front-end state), so neither is taxed with marking
		// the other's result.
		if _, err := warmMod.NewAnalyzer(tbaa.WithLevel(lvl), tbaa.WithArtifactCache(artDir)); err != nil {
			return nil, err
		}
		warmT, err := minDuration(2, func() error {
			w, err := warmMod.NewAnalyzer(tbaa.WithLevel(lvl), tbaa.WithArtifactCache(artDir))
			if err != nil {
				return err
			}
			if w.ArtifactStatus() != tbaa.ArtifactHit {
				return fmt.Errorf("warm start at %s: artifact status %s, want hit", lvl, w.ArtifactStatus())
			}
			wn := w.Paths()
			if len(wn) < 2 {
				return fmt.Errorf("too few access paths (%d)", len(wn))
			}
			_, err = w.MayAlias(wn[0], wn[1])
			return err
		})
		if err != nil {
			return nil, err
		}

		var a *tbaa.Analyzer
		buildT, err := minDuration(2, func() error {
			built, err := mod.NewAnalyzer(tbaa.WithLevel(lvl))
			if err != nil {
				return err
			}
			// Warm the lazy state so AnalyzerBuild covers everything a
			// first query pays for: snapshot, partition, compat matrix.
			names := built.Paths()
			if len(names) < 2 {
				return fmt.Errorf("too few access paths (%d)", len(names))
			}
			if _, err := built.MayAlias(names[0], names[1]); err != nil {
				return err
			}
			a = built
			return nil
		})
		if err != nil {
			return nil, err
		}
		names := a.Paths()
		base.Paths = len(names)

		// Hot: a small cycling working set — steady-state query cost.
		hotN := 64
		if hotN > len(names) {
			hotN = len(names)
		}
		hot := make([]tbaa.Pair, 0, hotN)
		for i := 0; i < hotN; i++ {
			hot = append(hot, tbaa.Pair{P: names[i], Q: names[(i*7+1)%hotN]})
		}
		// Rand: pairs strided across the whole path set — the
		// working-set-of-everything shape an analysis client produces.
		rand := make([]tbaa.Pair, 0, 4096)
		for i := 0; len(rand) < cap(rand); i++ {
			rand = append(rand, tbaa.Pair{P: names[(i*2654435761)%len(names)], Q: names[(i*40503+1)%len(names)]})
		}
		a.CountPairs() // warm flow facts before timed queries

		measure := func(pairs []tbaa.Pair) float64 {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pr := pairs[i%len(pairs)]
					if _, err := a.MayAlias(pr.P, pr.Q); err != nil {
						b.Fatal(err)
					}
				}
			})
			return float64(r.T.Nanoseconds()) / float64(r.N)
		}
		hotNs := measure(hot)
		randNs := measure(rand)
		cpT, err := minDuration(3, func() error { a.CountPairs(); return nil })
		if err != nil {
			return nil, err
		}

		// One-procedure incremental rebuild: re-install a verbatim body
		// through the public edit path and time the whole mutation —
		// this is the number the ≥50x-cheaper-than-AnalyzerBuild gate
		// (guard.DefaultScalePolicy) enforces at the largest module.
		editSrc, err := scaleEditProc(src)
		if err != nil {
			return nil, err
		}
		editT, err := minDuration(3, func() error {
			_, err := a.EditProc(editSrc)
			return err
		})
		if err != nil {
			return nil, err
		}

		lvlName := lvl.String()
		rows = append(rows,
			row(lvlName, "AnalyzerBuild", float64(buildT.Nanoseconds())),
			row(lvlName, "AnalyzerWarmStart", float64(warmT.Nanoseconds())),
			row(lvlName, "MayAliasHot", hotNs),
			row(lvlName, "MayAliasRand", randNs),
			row(lvlName, "CountPairs", float64(cpT.Nanoseconds())),
			row(lvlName, "CountPairsPerRef", float64(cpT.Nanoseconds())/float64(max(base.Refs, 1))),
			row(lvlName, "RebuildOneProc", float64(editT.Nanoseconds())),
		)
	}

	// Emit the level-independent rows with the program stats filled in.
	rows = append(rows,
		row("-", "Compile", float64(compileT.Nanoseconds())),
		row("-", "SummaryCHA", float64(chaT.Nanoseconds())),
		row("-", "SummaryRTA", float64(rtaT.Nanoseconds())),
	)
	return rows, nil
}

// FprintScale renders the sweep as a table grouped by module.
func FprintScale(w io.Writer, rows []ScaleRow) {
	fmt.Fprintf(w, "Scale: corpus cost by module size (ns/op)\n")
	fmt.Fprintf(w, "%-16s %8s %8s %8s %-16s %-18s %14s\n",
		"Benchmark", "Lines", "Procs", "Refs", "Level", "Op", "ns/op")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %8d %8d %8d %-16s %-18s %14.1f\n",
			r.Benchmark, r.Lines, r.Procs, r.Refs, r.Level, r.Op, r.NsPerOp)
	}
}
