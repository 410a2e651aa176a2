package modref

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"tbaa/internal/ast"
	"tbaa/internal/ir"
	"tbaa/internal/lower"
	"tbaa/internal/parser"
	"tbaa/internal/sema"
)

// Tests pinning Update's RTA-reuse precondition: an edit reuses the old
// instantiated set and reachability only when every edited procedure
// was unreachable or feeds the walk the same allocations, direct
// calls, and method-site keys. Every case, reused or recomputed, must
// come out equal to a from-scratch ComputeWith.

const reuseSrc = `
MODULE Reuse;
TYPE
  B     = OBJECT v: INTEGER; METHODS m() := BM; END;
  C1    = B OBJECT OVERRIDES m := C1M; END;
  C2    = B OBJECT OVERRIDES m := C2M; END;
  Only  = OBJECT z: INTEGER; END;
VAR c1: C1; c2: C2; o: Only; g: INTEGER;

PROCEDURE BM(self: B) = BEGIN g := 1; END BM;
PROCEDURE C1M(self: B) = BEGIN self.v := 1; END C1M;
PROCEDURE C2M(self: B) = BEGIN g := 2; END C2M;

PROCEDURE Alloc() =
BEGIN
  o := NEW(Only);
  o.z := 1;
END Alloc;

PROCEDURE Leaf() =
BEGIN
  g := 3;
END Leaf;

PROCEDURE Hidden() =
VAR d: Only;
BEGIN
  d := NEW(Only);
  d.z := 2;
END Hidden;

PROCEDURE Caller() =
BEGIN
  g := 4;
END Caller;

PROCEDURE Site() =
BEGIN
  c1.m();
END Site;

PROCEDURE Spare() =
BEGIN
  c2.m();
END Spare;

BEGIN
  c1 := NEW(C1);
  c2 := NEW(C2);
  Alloc();
  Caller();
  Site();
END Reuse.
`

// editable compiles src and keeps the checked program, so procedures
// can be replaced and re-lowered in place the way the facade's edit
// path does.
func editable(t *testing.T, src string) (*sema.Program, *ir.Program) {
	t.Helper()
	m, err := parser.Parse("reuse.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sema.Check(m)
	if err != nil {
		t.Fatal(err)
	}
	sp.Universe.Precompute()
	return sp, lower.Lower(sp)
}

// replaceProc installs decl (one PROCEDURE declaration) and returns the
// procedures it dirtied.
func replaceProc(t *testing.T, sp *sema.Program, prog *ir.Program, decl string) []*ir.Proc {
	t.Helper()
	m, err := parser.Parse("edit.m3", "MODULE EditM3; "+decl+" BEGIN END EditM3.")
	if err != nil {
		t.Fatal(err)
	}
	proc, err := sp.ReplaceProc(m.Decls[0].(*ast.ProcDecl))
	if err != nil {
		t.Fatal(err)
	}
	clock := prog.MutClock()
	lower.LowerProcInto(prog, sp, proc)
	return prog.DirtySince(clock)
}

// requireScratch checks mr against a from-scratch build of its program:
// instantiated set, reachability, freshness, call edges, and every
// procedure's summary (shapes compared by key: IDs differ between the
// two shape tables).
func requireScratch(t *testing.T, mr *ModRef) {
	t.Helper()
	want := ComputeWith(mr.prog, mr.cfg)
	if got, w := mr.Instantiated(), want.Instantiated(); !slices.Equal(got, w) {
		t.Fatalf("instantiated %v, scratch %v", got, w)
	}
	for _, p := range mr.prog.Procs {
		if mr.Reachable(p) != want.Reachable(p) {
			t.Errorf("%s: reachable %v, scratch %v", p.Name, mr.Reachable(p), want.Reachable(p))
		}
		if mr.ReturnsFresh(p) != want.ReturnsFresh(p) {
			t.Errorf("%s: returnsFresh %v, scratch %v", p.Name, mr.ReturnsFresh(p), want.ReturnsFresh(p))
		}
		if !slices.Equal(mr.Callees(p), want.Callees(p)) {
			t.Errorf("%s: callees differ from scratch", p.Name)
		}
		got, w := mr.Effects(p), want.Effects(p)
		if !sameSet(shapeSet(got.Mods), shapeSet(w.Mods)) || !sameSet(shapeSet(got.Refs), shapeSet(w.Refs)) {
			t.Errorf("%s: summary paths differ from scratch", p.Name)
		}
		if got.Top != w.Top || got.WritesThroughLocs != w.WritesThroughLocs || !maps.Equal(got.ModGlobals, w.ModGlobals) {
			t.Errorf("%s: summary flags differ from scratch", p.Name)
		}
	}
}

// sharesRTA reports whether mr reuses old's RTA result by identity.
func sharesRTA(mr, old *ModRef) bool {
	return &mr.inst[0] == &old.inst[0] &&
		reflect.ValueOf(mr.reachable).UnsafePointer() == reflect.ValueOf(old.reachable).UnsafePointer()
}

func TestUpdateRTAReuse(t *testing.T) {
	cfg := Config{RTA: true}
	cases := []struct {
		name  string
		decl  string
		reuse bool
	}{
		// Alloc holds Only's one reachable NEW (Hidden's is unreachable):
		// dropping it shrinks the instantiated set.
		{"remove only NEW", "PROCEDURE Alloc() =\nBEGIN\n  o.z := 1;\nEND Alloc;", false},
		// Leaf allocates nothing, so the instantiated set is unchanged
		// but Leaf becomes reachable.
		{"call makes reachable", "PROCEDURE Caller() =\nBEGIN\n  g := 4;\n  Leaf();\nEND Caller;", false},
		// Dispatch moves from C1M to C2M with both receivers instantiated.
		// The unreachable Spare already passes a C2 receiver, so the edit
		// adds no merge and the fingerprint holds.
		{"receiver type change", "PROCEDURE Site() =\nBEGIN\n  c2.m();\nEND Site;", false},
		// Hidden was never reached: the walk never read its body.
		{"unreachable edit", "PROCEDURE Hidden() =\nVAR d: Only;\nBEGIN\n  d := NEW(Only);\n  d.z := 5;\n  Leaf();\nEND Hidden;", true},
		// A repeated store and allocation: the same input set.
		{"same inputs", "PROCEDURE Alloc() =\nBEGIN\n  o := NEW(Only);\n  o.z := 1;\n  o := NEW(Only);\n  o.z := 6;\nEND Alloc;", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, prog := editable(t, reuseSrc)
			old := ComputeWith(prog, cfg)
			dirty := replaceProc(t, sp, prog, tc.decl)
			mr, _ := Update(old, cfg, dirty)
			if tc.reuse {
				if mr == nil || !sharesRTA(mr, old) {
					t.Fatal("edit did not reuse the old RTA result")
				}
			} else {
				if mr != nil && sharesRTA(mr, old) {
					t.Fatal("edit reused an RTA result its inputs invalidate")
				}
				if mr == nil {
					mr = ComputeWith(prog, cfg) // the caller's fallback
				}
			}
			requireScratch(t, mr)
		})
	}
}
