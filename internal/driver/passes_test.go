package driver_test

import (
	"testing"

	"tbaa/internal/alias"
	"tbaa/internal/driver"
	"tbaa/internal/interp"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
)

// passSrc has a monomorphic method call (devirtualizable), an inlinable
// callee that takes a field's address (WITH), and a loop with heap
// loads RLE cares about — enough structure for every pass to do work
// and for stale analysis state to be observable.
const passSrc = `
MODULE Passes;
TYPE
  T = OBJECT f, g: INTEGER; METHODS id(): INTEGER := TId; END;
VAR
  t: T;
  sum: INTEGER;

PROCEDURE TId(self: T): INTEGER =
BEGIN
  RETURN self.f;
END TId;

PROCEDURE Bump(o: T) =
BEGIN
  WITH w = o.f DO
    w := w + 1;
  END;
END Bump;

BEGIN
  t := NEW(T);
  t.f := 3;
  t.g := 0;
  Bump(t);
  FOR i := 1 TO 5 DO
    sum := sum + t.f + t.id();
  END;
  PutInt(sum); PutLn();
END Passes.
`

func lowerPasses(t *testing.T) *ir.Program {
	t.Helper()
	prog, _, err := driver.Compile("passes.m3", passSrc)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func mustEnv(t *testing.T, prog *ir.Program) *driver.PassEnv {
	t.Helper()
	env, err := driver.NewPassEnv(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestDevirtPassStandalone: Devirt is its own sealed pass now — it
// reports resolution work in its own result, without inlining.
func TestDevirtPassStandalone(t *testing.T) {
	env := mustEnv(t, lowerPasses(t))
	results, err := driver.RunPasses(env, driver.DevirtPass{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Pass != "devirt" {
		t.Fatalf("results = %+v, want one devirt result", results)
	}
	if results[0].Devirtualized == 0 {
		t.Error("the monomorphic t.id() call should devirtualize")
	}
	if results[0].Inlined != 0 {
		t.Errorf("standalone devirt must not inline, reported %d", results[0].Inlined)
	}
	// The fused pipeline still reports both counters in one result.
	env2 := mustEnv(t, lowerPasses(t))
	fused, err := driver.RunPasses(env2, driver.MinvInlinePass{})
	if err != nil {
		t.Fatal(err)
	}
	if fused[0].Devirtualized != results[0].Devirtualized {
		t.Errorf("fused Devirtualized = %d, standalone = %d", fused[0].Devirtualized, results[0].Devirtualized)
	}
	if fused[0].Inlined == 0 {
		t.Error("the fused pipeline should inline the small callees")
	}
}

// TestInvalidateRebuildsAnalyses pins the audit result: Invalidate must
// drop both memoized analyses so the next accessors rebuild from the
// (possibly rewritten) program — the alias memo and the field-indexed
// AddressTaken tables live inside the Analysis, so a fresh instance is
// the rebuild.
func TestInvalidateRebuildsAnalyses(t *testing.T) {
	env := mustEnv(t, lowerPasses(t))
	o1, mr1 := env.Oracle(), env.ModRef()
	if env.Oracle() != o1 || env.ModRef() != mr1 {
		t.Fatal("accessors must memoize between invalidations")
	}
	env.Invalidate()
	if env.Oracle() == o1 {
		t.Error("Invalidate left the stale alias analysis (partition + AddressTaken index) in place")
	}
	if env.ModRef() == mr1 {
		t.Error("Invalidate left the stale mod-ref summaries in place")
	}
}

// TestStaleMemoRegression warms the oracle's lazily built partition and
// AddressTaken owner index, runs the structural MinvInline pass, then
// RLE. If the pass manager handed RLE the pre-inline oracle (a
// partition over dead access paths, stale owner tables missing the
// cloned WITH-alias locals), its decisions
// could differ from a cold pipeline's. The two pipelines must agree on
// what RLE removed and on the program's behavior.
func TestStaleMemoRegression(t *testing.T) {
	runPipeline := func(warm bool) (driver.PassResult, string) {
		prog := lowerPasses(t)
		env := mustEnv(t, prog)
		if warm {
			// Query every reference pair and exercise the AddressTaken
			// index before any pass runs.
			o := env.Oracle()
			refs := alias.References(prog)
			for i := range refs {
				for j := range refs {
					o.MayAlias(refs[i].AP, refs[j].AP)
				}
				o.AddressTaken(refs[i].AP)
			}
		}
		results, err := driver.RunPasses(env, driver.MinvInlinePass{}, driver.RLEPass{})
		if err != nil {
			t.Fatal(err)
		}
		in := interp.New(prog)
		in.MaxSteps = 1_000_000
		out, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		return results[1], out
	}
	coldRLE, coldOut := runPipeline(false)
	warmRLE, warmOut := runPipeline(true)
	if warmRLE.Removed() != coldRLE.Removed() {
		t.Errorf("stale analysis state changed an RLE decision: warm removed %d, cold removed %d",
			warmRLE.Removed(), coldRLE.Removed())
	}
	if warmOut != coldOut {
		t.Errorf("pipeline output diverged: warm %q, cold %q", warmOut, coldOut)
	}
	if coldRLE.Removed() == 0 {
		t.Error("the loop's t.f load should be removable (test program too weak)")
	}
}

// devirtSrc has an abstract method with two overrides. Only S1 flows
// into a T-typed variable, so devirtualization (refined by the
// TypeRefsTable) resolves t.m() to S1M — shrinking the call graph the
// interprocedural summaries were built over: before the rewrite the
// call site is a method call whose CHA cone includes S2M, afterwards a
// direct call to S1M alone.
const devirtSrc = `
MODULE DV;
TYPE
  T  = OBJECT v: INTEGER; METHODS m(); END;
  S1 = T OBJECT OVERRIDES m := S1M; END;
  S2 = T OBJECT OVERRIDES m := S2M; END;
VAR
  t: T;
  s2: S2;
  g1, g2: INTEGER;

PROCEDURE S1M(self: T) =
BEGIN
  g1 := g1 + 1;
END S1M;

PROCEDURE S2M(self: T) =
BEGIN
  g2 := g2 + 1;
END S2M;

BEGIN
  t := NEW(S1);
  s2 := NEW(S2);
  t.m();
  PutInt(g1 + g2); PutLn();
END DV.
`

// TestDevirtShrinksStaleSummaries is the stale-summary regression
// test: when Devirt resolves method calls mid-pipeline, the pass
// manager must drop the interprocedural mod-ref summaries (and the
// oracle they are wired into), so the rebuilt summaries describe the
// rewritten call graph — a direct call's effects, not the dispatch
// cone's.
func TestDevirtShrinksStaleSummaries(t *testing.T) {
	prog := lowerSrc(t, devirtSrc)
	var g1, g2 *ir.Var
	for _, v := range prog.Globals {
		switch v.Name {
		case "g1":
			g1 = v
		case "g2":
			g2 = v
		}
	}
	var site *ir.Instr
	for _, b := range prog.Main.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpMethodCall {
				site = &b.Instrs[i]
			}
		}
	}
	if site == nil {
		t.Fatal("no method call in the module body")
	}
	// Premise: the CHA cone at the call site includes S2M's effects.
	if !modref.Compute(prog).CallEffects(site).ModGlobals[g2] {
		t.Fatal("pre-devirt CHA effects should include the S2M override's g2 write")
	}

	env, err := driver.NewPassEnv(prog, alias.Options{Level: alias.LevelIPTypeRefs})
	if err != nil {
		t.Fatal(err)
	}
	o1, mr1 := env.Oracle(), env.ModRef()
	results, err := driver.RunPasses(env, driver.DevirtPass{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Devirtualized == 0 {
		t.Fatal("t.m() should devirtualize to S1M (test premise)")
	}
	if env.Oracle() == o1 {
		t.Error("DevirtPass left the stale oracle (and its wired summaries) in place")
	}
	mr2 := env.ModRef()
	if mr2 == mr1 {
		t.Error("DevirtPass left the stale mod-ref summaries in place")
	}
	// The rewritten site is now a direct call to S1M; the rebuilt
	// summaries must describe S1M's effects alone.
	if site.Op != ir.OpCall || site.Callee != "S1M" {
		t.Fatalf("site after devirt = op %v callee %q, want a direct S1M call", site.Op, site.Callee)
	}
	eff := mr2.CallEffects(site)
	if !eff.ModGlobals[g1] || eff.ModGlobals[g2] {
		t.Errorf("rebuilt effects of the devirtualized call: g1=%v g2=%v, want g1 only",
			eff.ModGlobals[g1], eff.ModGlobals[g2])
	}
}

func lowerSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, _, err := driver.Compile("t.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
