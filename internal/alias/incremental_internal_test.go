package alias

import (
	"testing"

	"tbaa/internal/ir"
	"tbaa/internal/lower"
	"tbaa/internal/parser"
	"tbaa/internal/sema"
)

// In-package tests pinning Update's reuse behavior: a delta rebuild
// must actually share the old generation's structures (or it silently
// degrades to the cost of a full rebuild, which the differential gate
// in internal/driver cannot see), and it must refuse to run when a
// global fact table grew.

const incrSrc = `
MODULE Incr;
TYPE
  T = OBJECT f, g: INTEGER; n: T; END;
  S = OBJECT h: INTEGER; END;
VAR t: T; s: S; x: INTEGER;
PROCEDURE A() =
BEGIN
  t.f := 1;
  x := t.g;
END A;
PROCEDURE B() =
BEGIN
  s.h := 2;
  x := t.f;
  x := t.n.f;
END B;
BEGIN
  A();
  B();
END Incr.
`

func compileIncr(t *testing.T) *ir.Program {
	t.Helper()
	m, err := parser.Parse("incr.m3", incrSrc)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sema.Check(m)
	if err != nil {
		t.Fatal(err)
	}
	sp.Universe.Precompute()
	return lower.Lower(sp)
}

func TestUpdateSharesUntouchedStructures(t *testing.T) {
	prog := compileIncr(t)
	old := New(prog, Options{Level: LevelFSTypeRefs})
	refs := References(prog)
	if len(refs) < 2 {
		t.Fatal("want at least two references")
	}
	// Force the partition and some flow facts on the old generation.
	for _, r := range refs {
		MayAliasAt(old, refs[0].AP, Site{Proc: refs[0].Proc, Instr: refs[0].Instr}, r.AP, Site{Proc: r.Proc, Instr: r.Instr})
	}
	dirty := prog.ProcByName["A"]
	clean := prog.ProcByName["B"]
	if dirty == nil || clean == nil {
		t.Fatal("procs not found")
	}
	prog.MarkMutated(dirty)

	a := Update(old, []*ir.Proc{dirty})
	if a == nil {
		t.Fatal("Update returned nil for a well-formed delta")
	}
	if len(a.typeRefs) > 0 && &a.typeRefs[0] != &old.typeRefs[0] {
		t.Error("TypeRefsTable not shared")
	}
	op, np := old.part.Load(), a.part.Load()
	if op == nil || np == nil {
		t.Fatal("partition missing on a generation")
	}
	// No new access paths were introduced, so the compatibility matrix
	// must be shared outright, not recomputed.
	if len(np.compat) != len(op.compat) {
		t.Fatalf("compat grew from %d to %d classes without new paths", len(op.compat), len(np.compat))
	}
	if len(np.compat) > 0 && &np.compat[0][0] != &op.compat[0][0] {
		t.Error("compat matrix not shared for a no-new-class delta")
	}
	// Flow facts: the clean procedure's entry carries over by pointer;
	// the dirty procedure's entry is dropped.
	old.flow.mu.Lock()
	oe := old.flow.procs[clean]
	old.flow.mu.Unlock()
	a.flow.mu.Lock()
	ne, hasDirty := a.flow.procs[clean], a.flow.procs[dirty] != nil
	a.flow.mu.Unlock()
	if oe == nil || ne != oe {
		t.Error("clean procedure's flow entry not shared")
	}
	if hasDirty {
		t.Error("dirty procedure's flow entry survived")
	}
	// Verdicts match a from-scratch build.
	fresh := New(prog, Options{Level: LevelFSTypeRefs})
	for i := range refs {
		for j := range refs {
			si := Site{Proc: refs[i].Proc, Instr: refs[i].Instr}
			sj := Site{Proc: refs[j].Proc, Instr: refs[j].Instr}
			if got, want := MayAliasAt(a, refs[i].AP, si, refs[j].AP, sj), MayAliasAt(fresh, refs[i].AP, si, refs[j].AP, sj); got != want {
				t.Fatalf("MayAlias(%s, %s) delta=%v scratch=%v", refs[i].AP, refs[j].AP, got, want)
			}
		}
	}
}

func TestUpdateRefusesStaleFingerprint(t *testing.T) {
	prog := compileIncr(t)
	old := New(prog, Options{Level: LevelSMFieldTypeRefs})
	old.MayAlias(References(prog)[0].AP, References(prog)[0].AP)
	p := prog.ProcByName["A"]
	prog.MarkMutated(p)
	// A grown global fact table must force the full-rebuild fallback:
	// simulate what inlining an address-taking callee does.
	phantom := &ir.Var{Name: "phantom", Type: References(prog)[0].AP.Root.Type, Kind: ir.LocalVar}
	prog.AddressTakenVars[phantom] = true
	if Update(old, []*ir.Proc{p}) != nil {
		t.Fatal("Update accepted a delta across an AddressTakenVars change")
	}
}

func TestUpdateRefusesEmptyDirtySet(t *testing.T) {
	prog := compileIncr(t)
	old := New(prog, Options{Level: LevelSMFieldTypeRefs})
	if Update(old, nil) != nil {
		t.Fatal("Update accepted an empty dirty set")
	}
}
