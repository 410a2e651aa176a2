package randprog_test

import (
	"testing"

	"tbaa/internal/alias"
	"tbaa/internal/driver"
	"tbaa/internal/interp"
	"tbaa/internal/modref"
	"tbaa/internal/opt"
	"tbaa/internal/randprog"
	"tbaa/internal/types"
)

// TestGeneratedProgramsCompile checks the generator emits valid MiniM3.
func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		if _, _, err := driver.Compile("rand.m3", src); err != nil {
			t.Fatalf("seed %d does not compile: %v\n%s", seed, err, src)
		}
	}
}

// TestRLEPreservesSemantics is the core differential test: for many random
// programs, RLE under every analysis level — including the flow-sensitive
// refinement — must preserve output exactly.
func TestRLEPreservesSemantics(t *testing.T) {
	levels := []alias.Level{alias.LevelTypeDecl, alias.LevelFieldTypeDecl, alias.LevelSMFieldTypeRefs, alias.LevelFSTypeRefs}
	seeds := 120
	if testing.Short() {
		seeds = 25
	}
	ran := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		plainProg, _, err := driver.Compile("rand.m3", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		in := interp.New(plainProg)
		in.MaxSteps = 2_000_000
		want, err := in.Run()
		if err != nil {
			continue // trapping program: optimization contracts don't apply
		}
		ran++
		for _, lvl := range levels {
			prog, _, err := driver.Compile("rand.m3", src)
			if err != nil {
				t.Fatal(err)
			}
			o := alias.New(prog, alias.Options{Level: lvl})
			mr := modref.Compute(prog)
			res := opt.RLE(prog, o, mr)
			in2 := interp.New(prog)
			in2.MaxSteps = 4_000_000
			got, err := in2.Run()
			if err != nil {
				t.Fatalf("seed %d level %v: optimized program trapped: %v\n%s", seed, lvl, err, src)
			}
			if got != want {
				t.Fatalf("seed %d level %v (removed %d): output diverged\nwant %q\ngot  %q\n%s",
					seed, lvl, res.Removed(), want, got, src)
			}
		}
	}
	if ran < seeds/2 {
		t.Errorf("too many trapping seeds: only %d of %d ran", ran, seeds)
	}
}

// TestFullPipelinePreservesSemantics adds devirt + inline + open-world RLE.
func TestFullPipelinePreservesSemantics(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(1000); seed < int64(1000+seeds); seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		plainProg, _, err := driver.Compile("rand.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		in := interp.New(plainProg)
		in.MaxSteps = 2_000_000
		want, err := in.Run()
		if err != nil {
			continue
		}
		prog, _, err := driver.Compile("rand.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		a := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs, OpenWorld: true})
		refine := func(o *types.Object) []int {
			refs := a.TypeRefs(o)
			if refs == nil {
				return nil
			}
			return refs.IDs()
		}
		opt.Devirtualize(prog, refine)
		opt.Inline(prog)
		mr := modref.Compute(prog)
		opt.RLE(prog, a, mr)
		in2 := interp.New(prog)
		in2.MaxSteps = 4_000_000
		got, err := in2.Run()
		if err != nil {
			t.Fatalf("seed %d: pipeline trapped: %v\n%s", seed, err, src)
		}
		if got != want {
			t.Fatalf("seed %d: pipeline diverged\nwant %q\ngot  %q\n%s", seed, want, got, src)
		}
	}
}

// TestPerTypeGroupsSemantics exercises the SMTypeRefs ablation variant.
func TestPerTypeGroupsSemantics(t *testing.T) {
	for seed := int64(2000); seed < 2030; seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		plainProg, _, err := driver.Compile("rand.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		in := interp.New(plainProg)
		in.MaxSteps = 2_000_000
		want, err := in.Run()
		if err != nil {
			continue
		}
		prog, _, err := driver.Compile("rand.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		o := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs, PerTypeGroups: true})
		mr := modref.Compute(prog)
		opt.RLE(prog, o, mr)
		in2 := interp.New(prog)
		in2.MaxSteps = 4_000_000
		got, err := in2.Run()
		if err != nil {
			t.Fatalf("seed %d: trapped: %v", seed, err)
		}
		if got != want {
			t.Fatalf("seed %d: diverged\nwant %q\ngot %q\n%s", seed, want, got, src)
		}
	}
}

// TestInterproceduralPipelineDifferential is the differential harness
// for the interprocedural layer: on call-heavy random programs
// (virtual dispatch, mutual recursion, constructors, by-ref escapes),
// the full pass pipeline — Devirt, MinvInline, RLE, PRE — must produce
// byte-identical interpreter output at every level and world, and the interprocedural oracle must disambiguate a superset
// of the flow-sensitive oracle's pairs while RLE removes at least as
// many loads in every procedure.
func TestInterproceduralPipelineDifferential(t *testing.T) {
	configs := []alias.Options{
		{Level: alias.LevelTypeDecl},
		{Level: alias.LevelFieldTypeDecl},
		{Level: alias.LevelSMFieldTypeRefs},
		{Level: alias.LevelFSTypeRefs},
		{Level: alias.LevelIPTypeRefs},
		{Level: alias.LevelIPTypeRefs, OpenWorld: true},
	}
	seeds := 80
	if testing.Short() {
		seeds = 20
	}
	ran, disambiguated, improvedRLE := 0, 0, 0
	for seed := int64(5000); seed < int64(5000+seeds); seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		plainProg, _, err := driver.Compile("rand.m3", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		in := interp.New(plainProg)
		in.MaxSteps = 2_000_000
		want, err := in.Run()
		if err != nil {
			continue // trapping program: optimization contracts don't apply
		}
		ran++
		// Property 1: the full pipeline preserves output under every
		// configuration.
		for _, opts := range configs {
			prog, _, err := driver.Compile("rand.m3", src)
			if err != nil {
				t.Fatal(err)
			}
			env, err := driver.NewPassEnv(prog, opts)
			if err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, opts, err)
			}
			if _, err := driver.RunPasses(env,
				driver.DevirtPass{}, driver.MinvInlinePass{}, driver.RLEPass{}, driver.PREPass{}); err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, opts, err)
			}
			in2 := interp.New(prog)
			in2.MaxSteps = 8_000_000
			got, err := in2.Run()
			if err != nil {
				t.Fatalf("seed %d opts %+v: pipeline trapped: %v\n%s", seed, opts, err, src)
			}
			if got != want {
				t.Fatalf("seed %d opts %+v: pipeline diverged\nwant %q\ngot  %q\n%s",
					seed, opts, want, got, src)
			}
		}
		// Property 2 (monotonicity): IP never answers may-alias where FS
		// answers no-alias — the interprocedural no-alias set is a
		// superset — and its pair counts never exceed FS's.
		prog, _, err := driver.Compile("rand.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		fsEnv, err := driver.NewPassEnv(prog, alias.Options{Level: alias.LevelFSTypeRefs})
		if err != nil {
			t.Fatal(err)
		}
		ipEnv, err := driver.NewPassEnv(prog, alias.Options{Level: alias.LevelIPTypeRefs})
		if err != nil {
			t.Fatal(err)
		}
		fs, ip := fsEnv.Oracle(), ipEnv.Oracle()
		refs := alias.References(prog)
		for i := 0; i < len(refs); i++ {
			for j := i; j < len(refs); j++ {
				si := alias.Site{Proc: refs[i].Proc, Instr: refs[i].Instr}
				sj := alias.Site{Proc: refs[j].Proc, Instr: refs[j].Instr}
				if ip.MayAliasAt(refs[i].AP, si, refs[j].AP, sj) && !fs.MayAliasAt(refs[i].AP, si, refs[j].AP, sj) {
					t.Fatalf("seed %d: IP may-alias where FS says no: %s vs %s\n%s",
						seed, refs[i].AP, refs[j].AP, src)
				}
			}
		}
		fsPC, ipPC := alias.CountPairs(prog, fs), alias.CountPairs(prog, ip)
		if ipPC.Global > fsPC.Global || ipPC.Local > fsPC.Local {
			t.Fatalf("seed %d: IP pair counts exceed FS: IP=%+v FS=%+v", seed, ipPC, fsPC)
		}
		if ipPC.Global < fsPC.Global {
			disambiguated++
		}
		// Property 3: IP-driven RLE removes at least as many loads per
		// procedure as FS-driven RLE.
		removals := func(lvl alias.Level) opt.RLEResult {
			p2, _, err := driver.Compile("rand.m3", src)
			if err != nil {
				t.Fatal(err)
			}
			env, err := driver.NewPassEnv(p2, alias.Options{Level: lvl})
			if err != nil {
				t.Fatal(err)
			}
			return opt.RLE(p2, env.Oracle(), env.ModRef())
		}
		fsRes, ipRes := removals(alias.LevelFSTypeRefs), removals(alias.LevelIPTypeRefs)
		if ipRes.Removed() < fsRes.Removed() {
			t.Fatalf("seed %d: IP-driven RLE removed %d < FS's %d\n%s", seed, ipRes.Removed(), fsRes.Removed(), src)
		}
		for proc, n := range fsRes.PerProc {
			if ipRes.PerProc[proc] < n {
				t.Fatalf("seed %d: IP-driven RLE removed %d < FS's %d in %s\n%s",
					seed, ipRes.PerProc[proc], n, proc, src)
			}
		}
		if ipRes.Removed() > fsRes.Removed() {
			improvedRLE++
		}
	}
	t.Logf("ran %d/%d seeds; IP disambiguated pairs on %d, improved RLE on %d",
		ran, seeds, disambiguated, improvedRLE)
	if ran < seeds/2 {
		t.Errorf("too many trapping seeds: only %d of %d ran", ran, seeds)
	}
	if disambiguated == 0 && improvedRLE == 0 {
		t.Error("the interprocedural layer never fired across all seeds — it is inert on call-heavy programs")
	}
}

// TestFSTypeRefsIsSoundRefinement pins the two refinement properties on
// random programs: (1) FSTypeRefs' no-alias set is a superset of
// SMFieldTypeRefs' — it never answers may-alias where the
// flow-insensitive analysis answers no-alias, and its site-anchored
// pair counts never exceed the flow-insensitive ones; (2) RLE driven by
// the refinement removes at least as many loads at every procedure and
// leaves interpreter output unchanged.
func TestFSTypeRefsIsSoundRefinement(t *testing.T) {
	seeds := 80
	if testing.Short() {
		seeds = 20
	}
	disambiguated, improvedRLE := 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		plainProg, _, err := driver.Compile("rand.m3", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		in := interp.New(plainProg)
		in.MaxSteps = 2_000_000
		want, err := in.Run()
		if err != nil {
			continue // trapping program: optimization contracts don't apply
		}
		// Property 1: refinement only removes pairs.
		prog, _, err := driver.Compile("rand.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		sm := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs})
		fs := alias.New(prog, alias.Options{Level: alias.LevelFSTypeRefs})
		refs := alias.References(prog)
		for i := 0; i < len(refs); i++ {
			for j := i; j < len(refs); j++ {
				si := alias.Site{Proc: refs[i].Proc, Instr: refs[i].Instr}
				sj := alias.Site{Proc: refs[j].Proc, Instr: refs[j].Instr}
				if fs.MayAliasAt(refs[i].AP, si, refs[j].AP, sj) && !sm.MayAlias(refs[i].AP, refs[j].AP) {
					t.Fatalf("seed %d: FS may-alias where SM says no: %s vs %s\n%s",
						seed, refs[i].AP, refs[j].AP, src)
				}
			}
		}
		smPC, fsPC := alias.CountPairs(prog, sm), alias.CountPairs(prog, fs)
		if fsPC.Global > smPC.Global || fsPC.Local > smPC.Local {
			t.Fatalf("seed %d: FS pair counts exceed SM: FS=%+v SM=%+v", seed, fsPC, smPC)
		}
		if fsPC.Global < smPC.Global {
			disambiguated++
		}
		// Property 2: FS-driven RLE removes >= loads per procedure and
		// preserves semantics.
		smProg, _, err := driver.Compile("rand.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		smRes := opt.RLE(smProg, alias.New(smProg, alias.Options{Level: alias.LevelSMFieldTypeRefs}), modref.Compute(smProg))
		fsProg, _, err := driver.Compile("rand.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		fsRes := opt.RLE(fsProg, alias.New(fsProg, alias.Options{Level: alias.LevelFSTypeRefs}), modref.Compute(fsProg))
		if fsRes.Removed() < smRes.Removed() {
			t.Fatalf("seed %d: FS-driven RLE removed %d < SM's %d\n%s", seed, fsRes.Removed(), smRes.Removed(), src)
		}
		for proc, n := range smRes.PerProc {
			if fsRes.PerProc[proc] < n {
				t.Fatalf("seed %d: FS-driven RLE removed %d < SM's %d in %s\n%s",
					seed, fsRes.PerProc[proc], n, proc, src)
			}
		}
		if fsRes.Removed() > smRes.Removed() {
			improvedRLE++
		}
		in2 := interp.New(fsProg)
		in2.MaxSteps = 4_000_000
		got, err := in2.Run()
		if err != nil {
			t.Fatalf("seed %d: FS-optimized program trapped: %v\n%s", seed, err, src)
		}
		if got != want {
			t.Fatalf("seed %d: FS-driven RLE diverged\nwant %q\ngot  %q\n%s", seed, want, got, src)
		}
	}
	t.Logf("refinement disambiguated pairs on %d seeds, improved RLE on %d", disambiguated, improvedRLE)
	if disambiguated == 0 {
		t.Error("the refinement never fired across all seeds — it is inert on allocation-heavy programs")
	}
}
