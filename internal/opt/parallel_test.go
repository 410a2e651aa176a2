package opt_test

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"tbaa/internal/alias"
	"tbaa/internal/driver"
	"tbaa/internal/interp"
	"tbaa/internal/opt"
	"tbaa/internal/randprog"
)

// The optimizer fans its per-procedure work across GOMAXPROCS workers.
// These tests pin the contract that makes that invisible: the rewritten
// program, the pass results and the set of procedures stamped mutated
// are the same for one worker and for several, and the optimized
// program still prints what the unoptimized one does. Run under -race
// they also check that concurrent procedures share no unguarded state.

// parallelSeeds is the number of random programs checked, spread
// round-robin over the level x world configurations. TBAA_DIFF_SEEDS
// overrides; -short trims it.
func parallelSeeds(t *testing.T) int {
	if s := os.Getenv("TBAA_DIFF_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad TBAA_DIFF_SEEDS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 10
	}
	return 30
}

// parallelConfig has enough procedures for every worker to get some.
var parallelConfig = randprog.Config{Types: 5, Globals: 6, Procs: 8, StmtsPer: 8, MaxDepth: 2}

// passOutcome is everything a pass run leaves observable.
type passOutcome struct {
	ir     string
	locals string
	rle    opt.RLEResult
	pre    opt.PREResult
	dirty  []string
	output string
}

// runPasses compiles src, runs RLE (and PRE after it when withPRE) with
// GOMAXPROCS set to procs, and runs the result.
func runPasses(t *testing.T, src string, opts alias.Options, withPRE bool, procs int) passOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	prog, _, err := driver.Compile("par.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	env, err := driver.NewPassEnv(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	o, mr := env.Oracle(), env.ModRef()
	clock := prog.MutClock()
	var out passOutcome
	out.rle = opt.RLE(prog, o, mr)
	if withPRE {
		out.pre = opt.PRE(prog, o, mr)
	}
	for _, p := range prog.DirtySince(clock) {
		out.dirty = append(out.dirty, p.Name)
	}
	out.ir = prog.String()
	var ls strings.Builder
	for _, p := range prog.Procs {
		for _, v := range p.Locals {
			fmt.Fprintf(&ls, "%s.%s@%d ", p.Name, v.Name, v.Slot)
		}
	}
	out.locals = ls.String()
	in := interp.New(prog)
	in.MaxSteps = 4_000_000
	out.output, err = in.Run()
	if err != nil {
		t.Fatalf("optimized program trapped: %v", err)
	}
	return out
}

func TestPassesIndependentOfGOMAXPROCS(t *testing.T) {
	levels := []alias.Level{
		alias.LevelTypeDecl,
		alias.LevelFieldTypeDecl,
		alias.LevelSMFieldTypeRefs,
		alias.LevelFSTypeRefs,
		alias.LevelIPTypeRefs,
	}
	var configs []alias.Options
	for _, lvl := range levels {
		configs = append(configs, alias.Options{Level: lvl}, alias.Options{Level: lvl, OpenWorld: true})
	}
	seeds := parallelSeeds(t)
	ran, removed := 0, 0
	for k := 0; k < seeds; k++ {
		seed := int64(91000 + k)
		opts := configs[k%len(configs)]
		src := randprog.Generate(seed, parallelConfig)
		plain, _, err := driver.Compile("par.m3", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		in := interp.New(plain)
		in.MaxSteps = 2_000_000
		want, err := in.Run()
		if err != nil {
			continue // trapping program: optimization contracts don't apply
		}
		ran++
		for _, withPRE := range []bool{false, true} {
			one := runPasses(t, src, opts, withPRE, 1)
			many := runPasses(t, src, opts, withPRE, 4)
			ctx := fmt.Sprintf("seed %d %+v PRE=%v", seed, opts, withPRE)
			if one.output != want {
				t.Fatalf("%s: optimized output diverged\nwant %q\ngot  %q", ctx, want, one.output)
			}
			if many.ir != one.ir {
				t.Fatalf("%s: IR differs between 1 and 4 workers\n1:\n%s\n4:\n%s", ctx, one.ir, many.ir)
			}
			if many.locals != one.locals {
				t.Fatalf("%s: locals differ between 1 and 4 workers\n1: %s\n4: %s", ctx, one.locals, many.locals)
			}
			if !reflect.DeepEqual(many.rle, one.rle) || many.pre != one.pre {
				t.Fatalf("%s: results differ: 1 worker %+v %+v, 4 workers %+v %+v", ctx, one.rle, one.pre, many.rle, many.pre)
			}
			if !reflect.DeepEqual(many.dirty, one.dirty) {
				t.Fatalf("%s: stamped procedures differ: 1 worker %v, 4 workers %v", ctx, one.dirty, many.dirty)
			}
			if many.output != want {
				t.Fatalf("%s: 4-worker output diverged\nwant %q\ngot  %q", ctx, want, many.output)
			}
			removed += one.rle.Removed()
		}
	}
	t.Logf("ran %d/%d seeds; RLE removed %d loads in total", ran, seeds, removed)
	if ran < seeds/2 {
		t.Errorf("too many trapping seeds: only %d of %d ran", ran, seeds)
	}
	if removed == 0 {
		t.Error("RLE removed nothing on any seed: the comparison is vacuous")
	}
}
