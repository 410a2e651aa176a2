package alias_test

import (
	"strings"
	"testing"

	"tbaa/internal/alias"
	"tbaa/internal/driver"
	"tbaa/internal/interp"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
	"tbaa/internal/opt"
	"tbaa/internal/types"
)

// flowSrc allocates two sibling subtypes into supertype-declared
// variables: flow-insensitively x.i and y.i may alias (both roots are
// declared T and the NEW merges keep S1 and S2 in T's cone), but at the
// statements below x can only hold an S1 and y an S2.
const flowSrc = `
MODULE Flow;
TYPE
  T  = OBJECT i: INTEGER; r: T; END;
  S1 = T OBJECT a: INTEGER; END;
  S2 = T OBJECT b: INTEGER; END;
VAR
  x, y, z: T;
  sink: INTEGER;
BEGIN
  x := NEW(S1);
  y := NEW(S2);
  z := NEW(T);
  x.i := 1;
  y.i := 2;
  z.i := 3;
  sink := x.i;
  sink := y.i;
  sink := z.i;
  PutInt(sink); PutLn();
END Flow.
`

// sites collects every (proc, instr) reference site whose AP renders to
// the given source path, in program order.
func sites(prog *ir.Program, path string) []alias.Site {
	var out []alias.Site
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.AP != nil && in.AP.String() == path {
					out = append(out, alias.Site{Proc: p, Instr: in})
				}
			}
		}
	}
	return out
}

func compileFlow(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, _, err := driver.Compile("flow.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestFlowNarrowsSiblingAllocations is the tentpole's core contract:
// after x := NEW(S1) and y := NEW(S2), the refinement proves x.i and
// y.i disjoint while the flow-insensitive verdict stays may-alias.
func TestFlowNarrowsSiblingAllocations(t *testing.T) {
	prog := compileFlow(t, flowSrc)
	fs := alias.New(prog, alias.Options{Level: alias.LevelFSTypeRefs})
	xi, yi, zi := sites(prog, "x.i"), sites(prog, "y.i"), sites(prog, "z.i")
	if len(xi) == 0 || len(yi) == 0 || len(zi) == 0 {
		t.Fatalf("reference sites missing: x.i=%d y.i=%d z.i=%d", len(xi), len(yi), len(zi))
	}
	apx, apy, apz := xi[0].Instr.AP, yi[0].Instr.AP, zi[0].Instr.AP

	if !fs.MayAlias(apx, apy) {
		t.Fatal("context-free MayAlias must stay flow-insensitive (may-alias)")
	}
	if fs.MayAliasAt(apx, xi[0], apy, yi[0]) {
		t.Error("x.i (=NEW(S1)) vs y.i (=NEW(S2)): refinement should prove no-alias")
	}
	// z holds exactly a T; S1 values are in T's row only via z's declared
	// cone — but z's narrowed set is {T} and x's is {S1}: disjoint.
	if fs.MayAliasAt(apx, xi[0], apz, zi[0]) {
		t.Error("x.i (=NEW(S1)) vs z.i (=NEW(T)): refinement should prove no-alias")
	}
	// Without statement context the refinement must not fire.
	if !fs.MayAliasAt(apx, alias.Site{}, apy, alias.Site{}) {
		t.Error("zero Sites must degrade to the flow-insensitive verdict")
	}
}

// TestFlowRefinementIsSoundRefinement checks FSTypeRefs never answers
// may-alias where SMFieldTypeRefs answers no-alias, and the pair counts
// shrink (never grow).
func TestFlowRefinementNeverAddsPairs(t *testing.T) {
	prog := compileFlow(t, flowSrc)
	sm := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs})
	fs := alias.New(prog, alias.Options{Level: alias.LevelFSTypeRefs})
	refs := alias.References(prog)
	for i := 0; i < len(refs); i++ {
		for j := i; j < len(refs); j++ {
			si := alias.Site{Proc: refs[i].Proc, Instr: refs[i].Instr}
			sj := alias.Site{Proc: refs[j].Proc, Instr: refs[j].Instr}
			fsV := fs.MayAliasAt(refs[i].AP, si, refs[j].AP, sj)
			smV := sm.MayAlias(refs[i].AP, refs[j].AP)
			if fsV && !smV {
				t.Fatalf("FS may-alias where SM says no: %s vs %s", refs[i].AP, refs[j].AP)
			}
		}
	}
	smPC := alias.CountPairs(prog, sm)
	fsPC := alias.CountPairs(prog, fs)
	if fsPC.Global > smPC.Global || fsPC.Local > smPC.Local {
		t.Fatalf("FS pair counts exceed SM: FS=%+v SM=%+v", fsPC, smPC)
	}
	if fsPC.Global >= smPC.Global {
		t.Errorf("expected strict refinement on flowSrc: FS global %d, SM global %d", fsPC.Global, smPC.Global)
	}
}

// TestFlowKillsAtCallsAndLocationStores pins the conservative kills: a
// call (which may reassign globals) drops a global's narrowing, so the
// refinement must not fire after it.
func TestFlowKillsAtCalls(t *testing.T) {
	src := `
MODULE FlowKill;
TYPE
  T  = OBJECT i: INTEGER; END;
  S1 = T OBJECT a: INTEGER; END;
  S2 = T OBJECT b: INTEGER; END;
VAR
  x, y: T;
  sink: INTEGER;

PROCEDURE Shuffle() =
BEGIN
  x := y;
END Shuffle;

BEGIN
  x := NEW(S1);
  y := NEW(S2);
  sink := x.i;   (* narrowed: x={S1}, y={S2} *)
  sink := y.i;
  Shuffle();
  sink := x.i;   (* x may now be y's S2 object *)
  sink := y.i;
  PutInt(sink); PutLn();
END FlowKill.
`
	prog := compileFlow(t, src)
	fs := alias.New(prog, alias.Options{Level: alias.LevelFSTypeRefs})
	xi, yi := sites(prog, "x.i"), sites(prog, "y.i")
	// Shuffle assigns whole variables, so every x.i / y.i site is in the
	// main body: program order gives the pre-call load then the post-call
	// load of each.
	if len(xi) != 2 || len(yi) != 2 {
		t.Fatalf("unexpected site counts: x.i=%d y.i=%d", len(xi), len(yi))
	}
	if fs.MayAliasAt(xi[0].Instr.AP, xi[0], yi[0].Instr.AP, yi[0]) {
		t.Error("before the call x={S1}, y={S2}: x.i vs y.i should be disjoint")
	}
	if !fs.MayAliasAt(xi[1].Instr.AP, xi[1], yi[1].Instr.AP, yi[1]) {
		t.Error("after the call the globals' narrowing must be killed: x.i vs y.i may alias")
	}
}

// TestFlowPrefixStoreKillsDeepFact is the regression test for a
// soundness hole the review's reproducer found: a store to a path's
// proper prefix (x.q := t) rewrites which object the deeper path
// (x.q.p) selects through, so its reaching-store fact must die even
// though the two locations themselves never alias (distinct final
// fields). With the stale fact alive, w below narrowed to {S1} while
// actually referencing s's S2 object, FS-driven RLE hoisted w.i past
// the s.i stores, and the program printed 0 instead of 6.
func TestFlowPrefixStoreKillsDeepFact(t *testing.T) {
	src := `
MODULE PrefixKill;
TYPE
  T  = OBJECT p, q: T; i: INTEGER; END;
  S1 = T OBJECT a: INTEGER; END;
  S2 = T OBJECT b: INTEGER; END;
VAR
  x, t, s, w: T;
  sum: INTEGER;
BEGIN
  s := NEW(S2);
  t := NEW(T);
  t.p := s;
  x := NEW(T);
  x.q := NEW(T);
  x.q.p := NEW(S1);
  x.q := t;
  w := x.q.p;
  w.i := 0;
  FOR k := 1 TO 3 DO
    s.i := k;
    sum := sum + w.i;
  END;
  PutInt(sum); PutLn();
END PrefixKill.
`
	prog := compileFlow(t, src)
	fs := alias.New(prog, alias.Options{Level: alias.LevelFSTypeRefs})
	wi, si := sites(prog, "w.i"), sites(prog, "s.i")
	if len(wi) == 0 || len(si) == 0 {
		t.Fatalf("sites missing: w.i=%d s.i=%d", len(wi), len(si))
	}
	// w references s's object here: the refinement must not separate them.
	last := func(ss []alias.Site) alias.Site { return ss[len(ss)-1] }
	if !fs.MayAliasAt(last(wi).Instr.AP, last(wi), last(si).Instr.AP, last(si)) {
		t.Error("stale x.q.p fact survived the prefix store x.q := t: w.i vs s.i answered no-alias")
	}
	// End to end: RLE must leave the loop's w.i load killed by the s.i
	// store, so the program still prints 6 — at every field-sensitive
	// level. The same hole existed flow-insensitively: cseLoads'
	// availability kill used plain MayAlias, which the prefix store
	// x.q := t does not trigger (modref.StoreKills now does).
	in := interp.New(prog)
	in.MaxSteps = 1_000_000
	want, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want != "6\n" {
		t.Fatalf("unoptimized output %q, want \"6\\n\"", want)
	}
	for _, lvl := range []alias.Level{alias.LevelFieldTypeDecl, alias.LevelSMFieldTypeRefs, alias.LevelFSTypeRefs} {
		optProg := compileFlow(t, src)
		o := alias.New(optProg, alias.Options{Level: lvl})
		opt.RLE(optProg, o, modref.Compute(optProg))
		in2 := interp.New(optProg)
		in2.MaxSteps = 1_000_000
		got, err := in2.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v-driven RLE miscompiled: want %q, got %q", lvl, want, got)
		}
	}
}

// joinSrc has two diamonds, one widening x in its THEN arm and one
// widening y in its ELSE arm, then a loop whose back edge adds nothing.
const joinSrc = `
MODULE Join;
TYPE
  T  = OBJECT i: INTEGER; END;
  S1 = T OBJECT a: INTEGER; END;
  S2 = T OBJECT b: INTEGER; END;
VAR
  x, y: T;
  c, sink: INTEGER;
BEGIN
  c := 1;
  x := NEW(S1);
  y := NEW(S1);
  sink := x.i;
  sink := y.i;
  IF c > 0 THEN
    x := NEW(S2);
    sink := x.i;
  ELSE
    sink := x.i;
  END;
  sink := x.i;
  IF c > 0 THEN
    sink := y.i;
  ELSE
    y := NEW(S2);
    sink := y.i;
  END;
  sink := y.i;
  WHILE c < 10 DO
    sink := x.i;
    c := c + 1;
  END;
  sink := x.i;
  PutInt(sink); PutLn();
END Join.
`

// TestFlowJoinLeavesPredecessorFactsAlone pins the copy-on-write join:
// a join shares a predecessor's set when the other paths add nothing
// and unions into a clone otherwise, so the facts snapshotted before
// the join — in the arm that did not widen and in the block before the
// branch — still hold their own sets afterwards.
func TestFlowJoinLeavesPredecessorFactsAlone(t *testing.T) {
	prog := compileFlow(t, joinSrc)
	fs := alias.New(prog, alias.Options{Level: alias.LevelFSTypeRefs})
	names := func(s types.Bitset) string {
		var out []string
		for _, id := range s.IDs() {
			out = append(out, prog.Universe.ByID(id).String())
		}
		return strings.Join(out, ",")
	}
	check := func(path string, want []string) {
		t.Helper()
		ss := sites(prog, path)
		if len(ss) != len(want) {
			t.Fatalf("%s: %d sites, want %d", path, len(ss), len(want))
		}
		for k, s := range ss {
			got := alias.FlowSet(fs, s.Instr.AP.Root, s)
			if got == nil || names(got) != want[k] {
				t.Errorf("%s site %d: narrowed to {%s}, want {%s}", path, k, names(got), want[k])
			}
		}
	}
	// x: before the branch, widening THEN arm, plain ELSE arm, after
	// the join, in the loop (header join with a back edge adding
	// nothing), after the loop.
	check("x.i", []string{"S1", "S2", "S1", "S1,S2", "S1,S2", "S1,S2"})
	// y: before the branch, plain THEN arm, widening ELSE arm, after.
	check("y.i", []string{"S1", "S1", "S2", "S1,S2"})
}
