package alias_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"tbaa/internal/alias"
	"tbaa/internal/bench"
	"tbaa/internal/driver"
	"tbaa/internal/ir"
	"tbaa/internal/randprog"
)

// partitionConfigs enumerates every analysis configuration the
// partition oracle must reproduce exactly: all five levels crossed with
// the open-world and per-type-groups switches.
func partitionConfigs() []alias.Options {
	var out []alias.Options
	for _, lvl := range []alias.Level{
		alias.LevelTypeDecl,
		alias.LevelFieldTypeDecl,
		alias.LevelSMFieldTypeRefs,
		alias.LevelFSTypeRefs,
		alias.LevelIPTypeRefs,
	} {
		for _, open := range []bool{false, true} {
			for _, perType := range []bool{false, true} {
				out = append(out, alias.Options{Level: lvl, OpenWorld: open, PerTypeGroups: perType})
			}
		}
	}
	return out
}

// TestPartitionMatchesCaseAnalysis is the exactness property behind
// the partition oracle: on randomly generated programs, at every level
// × OpenWorld × PerTypeGroups, the partitioned Analysis and a
// case-analysis-only Analysis (alias.NewCaseOnly) must return
// identical MayAlias verdicts for every reference pair — including the
// proper-prefix paths the store-kill rules query — and identical
// CountPairs metrics. Any divergence means an access-path signature is
// missing an input of Table 2's case analysis.
func TestPartitionMatchesCaseAnalysis(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	cfg := randprog.Config{Types: 10, Globals: 6, Procs: 4, StmtsPer: 6, MaxDepth: 2}
	configs := partitionConfigs()
	for seed := int64(31000); seed < int64(31000)+int64(seeds); seed++ {
		src := randprog.Generate(seed, cfg)
		prog, _, err := driver.Compile("p.m3", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		refs := alias.References(prog)
		// The pair sweep is quadratic; bound the per-seed work while the
		// CountPairs comparison still covers every reference.
		sweep := refs
		if len(sweep) > 48 {
			sweep = sweep[:48]
		}
		for _, opts := range configs {
			part := alias.New(prog, opts)
			caseOnly := alias.NewCaseOnly(prog, opts)
			queryPaths := make([]*ir.AP, 0, 2*len(sweep))
			for i := range sweep {
				queryPaths = append(queryPaths, sweep[i].AP)
				// Deepest proper prefix: the path shape StoreKills walks.
				if n := len(sweep[i].AP.Sels); n >= 2 {
					queryPaths = append(queryPaths,
						&ir.AP{Root: sweep[i].AP.Root, Sels: sweep[i].AP.Sels[:n-1]})
				}
			}
			for i, p := range queryPaths {
				for j := i; j < len(queryPaths); j++ {
					q := queryPaths[j]
					got, want := part.MayAlias(p, q), caseOnly.MayAlias(p, q)
					if got != want {
						t.Fatalf("seed %d %v open=%v perType=%v: partition says %v, case analysis %v on %s ~ %s",
							seed, opts.Level, opts.OpenWorld, opts.PerTypeGroups, got, want, p, q)
					}
					// StoreKills walks the interned canonical prefix
					// chains, so this pins the partition's classification
					// of prefix paths too.
					gotK := part.StoreKills(p, alias.Site{}, q, alias.Site{})
					wantK := caseOnly.StoreKills(p, alias.Site{}, q, alias.Site{})
					if gotK != wantK {
						t.Fatalf("seed %d %v open=%v perType=%v: StoreKills diverged (%v vs %v) on %s killed by %s",
							seed, opts.Level, opts.OpenWorld, opts.PerTypeGroups, gotK, wantK, p, q)
					}
				}
			}
			gotPC := alias.CountPairs(prog, part)
			wantPC := alias.CountPairs(prog, caseOnly)
			if gotPC != wantPC {
				t.Fatalf("seed %d %v open=%v perType=%v: CountPairs %+v (partition) != %+v (case analysis)",
					seed, opts.Level, opts.OpenWorld, opts.PerTypeGroups, gotPC, wantPC)
			}
		}
	}
}

// TestPartitionAfterStructuralPasses pins the mutated-program rebuild
// path: devirtualization + inlining clone procedure bodies (fresh AP
// values) and invalidate, so the next oracle build re-interns a
// program that mixes surviving identities with new paths, and RLE then
// rewrites loads, orphaning identities. The rebuilt partition must
// agree with the case analysis on every reference pair — a duplicate
// or stale identity here once produced unsound no-alias verdicts (and
// nil holes crashed the builder) on the stock suite's Figure 11
// pipeline.
func TestPartitionAfterStructuralPasses(t *testing.T) {
	for _, bm := range bench.All() {
		prog, _, err := driver.Compile(bm.Name, bm.Source)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		opts := alias.Options{Level: alias.LevelSMFieldTypeRefs}
		env, err := driver.NewPassEnv(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := driver.RunPasses(env, driver.MinvInlinePass{}, driver.RLEPass{}, driver.PREPass{}); err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		// A fresh build over the now-mutated program: surviving APs keep
		// their identities, clones and PRE-inserted loads are new, and
		// RLE-removed loads left holes.
		env.Invalidate()
		part := env.Oracle()
		caseOnly := alias.NewCaseOnly(prog, opts)
		refs := alias.References(prog)
		for i := range refs {
			for j := i; j < len(refs); j++ {
				got := part.MayAlias(refs[i].AP, refs[j].AP)
				want := caseOnly.MayAlias(refs[i].AP, refs[j].AP)
				if got != want {
					t.Fatalf("%s: rebuilt partition says %v, case analysis %v on %s ~ %s",
						bm.Name, got, want, refs[i].AP, refs[j].AP)
				}
			}
		}
		if got, want := alias.CountPairs(prog, part), alias.CountPairs(prog, caseOnly); got != want {
			t.Fatalf("%s: rebuilt CountPairs %+v != %+v", bm.Name, got, want)
		}
	}
}

// TestPartitionStableAcrossRebuild pins rebuild determinism: a second
// Analysis over the same (already interned) program answers every
// reference pair identically — the property the Analyzer's Invalidate
// path depends on.
func TestPartitionStableAcrossRebuild(t *testing.T) {
	src := randprog.Generate(4242, randprog.DefaultConfig())
	prog, _, err := driver.Compile("p.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range partitionConfigs() {
		a1 := alias.New(prog, opts)
		a2 := alias.New(prog, opts)
		refs := alias.References(prog)
		for i := range refs {
			for j := i; j < len(refs); j++ {
				if a1.MayAlias(refs[i].AP, refs[j].AP) != a2.MayAlias(refs[i].AP, refs[j].AP) {
					t.Fatalf("%v: rebuild changed the verdict on %s ~ %s",
						opts.Level, refs[i].AP, refs[j].AP)
				}
			}
		}
		if alias.CountPairs(prog, a1) != alias.CountPairs(prog, a2) {
			t.Fatalf("%v: rebuild changed CountPairs", opts.Level)
		}
	}
}

// TestPartitionCoversPipelinePaths pins the premise that lets MayAlias
// and StoreKills go without a cache: on every path a pass pipeline
// leaves on an instruction, the current oracle answers through the
// partition, never through the uncached case analysis. Every stock
// program runs Devirt, MinvInline, RLE and PRE through a PassEnv at
// every level × world, and so do random programs, spread round-robin
// over the configurations (TBAA_DIFF_SEEDS overrides their count; the
// CI gate runs 500). After each pass, and after a final Invalidate and
// incremental rebuild, every instruction path must be classified and,
// with two or more selectors, have its classified canonical prefix
// chain in the intern index.
func TestPartitionCoversPipelinePaths(t *testing.T) {
	seeds := 100
	if s := os.Getenv("TBAA_DIFF_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad TBAA_DIFF_SEEDS=%q", s)
		}
		seeds = n
	} else if testing.Short() {
		seeds = 20
	}
	var configs []alias.Options
	for _, lvl := range []alias.Level{
		alias.LevelTypeDecl,
		alias.LevelFieldTypeDecl,
		alias.LevelSMFieldTypeRefs,
		alias.LevelFSTypeRefs,
		alias.LevelIPTypeRefs,
	} {
		configs = append(configs, alias.Options{Level: lvl}, alias.Options{Level: lvl, OpenWorld: true})
	}
	for _, bm := range bench.All() {
		for _, opts := range configs {
			checkPipelineCoverage(t, bm.Name, bm.Source, opts)
		}
	}
	for k := 0; k < seeds; k++ {
		seed := int64(83000 + k)
		checkPipelineCoverage(t, fmt.Sprintf("seed %d", seed),
			randprog.Generate(seed, randprog.DefaultConfig()), configs[k%len(configs)])
	}
}

func checkPipelineCoverage(t *testing.T, name, src string, opts alias.Options) {
	t.Helper()
	prog, _, err := driver.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	env, err := driver.NewPassEnv(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		o := env.Oracle()
		for _, p := range prog.Procs {
			for _, b := range p.Blocks {
				for _, in := range b.Instrs {
					if in.AP == nil {
						continue
					}
					classified, chained := alias.Coverage(o, in.AP)
					if !classified {
						t.Fatalf("%s %v open=%v after %s: %s in %s has no partition class",
							name, opts.Level, opts.OpenWorld, stage, in.AP, p.Name)
					}
					if !chained {
						t.Fatalf("%s %v open=%v after %s: %s in %s has no classified prefix chain",
							name, opts.Level, opts.OpenWorld, stage, in.AP, p.Name)
					}
				}
			}
		}
	}
	for _, pass := range []driver.Pass{driver.DevirtPass{}, driver.MinvInlinePass{}, driver.RLEPass{}, driver.PREPass{}} {
		if _, err := pass.Run(env); err != nil {
			t.Fatalf("%s: pass %s: %v", name, pass.Name(), err)
		}
		check(pass.Name())
	}
	env.Invalidate()
	check("incremental rebuild")
}
