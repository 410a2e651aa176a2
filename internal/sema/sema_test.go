package sema

import (
	"strings"
	"testing"

	"tbaa/internal/ast"
	"tbaa/internal/parser"
	"tbaa/internal/types"
)

func mustCheck(t *testing.T, src string) *Program {
	t.Helper()
	m, err := parser.Parse("test.m3", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Check(m)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

func checkErr(t *testing.T, src, wantSubstr string) {
	t.Helper()
	m, err := parser.Parse("test.m3", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Check(m)
	if err == nil {
		t.Fatalf("expected error containing %q, got none", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		// Look through the whole list.
		if el, ok := err.(ErrorList); ok {
			for _, e := range el {
				if strings.Contains(e.Msg, wantSubstr) {
					return
				}
			}
		}
		t.Fatalf("error %q does not contain %q", err, wantSubstr)
	}
}

const hierarchySrc = `
MODULE H;
TYPE
  T = OBJECT f, g: T; END;
  S1 = T OBJECT a: INTEGER; END;
  S2 = T OBJECT b: INTEGER; END;
  S3 = T OBJECT c: INTEGER; END;
VAR
  t: T;
  s: S1;
  u: S2;
BEGIN
  t := NEW(T);
  s := NEW(S1);
  t := s;
END H.
`

func TestHierarchy(t *testing.T) {
	p := mustCheck(t, hierarchySrc)
	u := p.Universe
	tt := p.TypeNamed("T").(*types.Object)
	s1 := p.TypeNamed("S1").(*types.Object)
	s2 := p.TypeNamed("S2").(*types.Object)
	if !s1.IsSubtypeOf(tt) || !s2.IsSubtypeOf(tt) {
		t.Fatal("subtype relation broken")
	}
	if s1.IsSubtypeOf(s2) || s2.IsSubtypeOf(s1) {
		t.Fatal("siblings should not be subtypes")
	}
	// Subtypes(T) = {T, S1, S2, S3}
	if got := len(u.Subtypes(tt)); got != 4 {
		t.Errorf("len(Subtypes(T)) = %d, want 4", got)
	}
	if got := len(u.Subtypes(s1)); got != 1 {
		t.Errorf("len(Subtypes(S1)) = %d, want 1", got)
	}
	if !u.SubtypesIntersect(tt, s1) {
		t.Error("T and S1 should intersect")
	}
	if u.SubtypesIntersect(s1, s2) {
		t.Error("S1 and S2 should not intersect")
	}
	// Inherited field lookup.
	if s1.FieldNamed("f") == nil {
		t.Error("S1 should inherit field f")
	}
	if len(s1.AllFields()) != 3 {
		t.Errorf("S1 fields: %d, want 3", len(s1.AllFields()))
	}
}

func TestAssignability(t *testing.T) {
	p := mustCheck(t, hierarchySrc)
	u := p.Universe
	tt := p.TypeNamed("T")
	s1 := p.TypeNamed("S1")
	if !u.AssignableTo(s1, tt) {
		t.Error("S1 assignable to T")
	}
	if u.AssignableTo(tt, s1) {
		t.Error("T should not be assignable to S1 (no NARROW in MiniM3)")
	}
	if !u.AssignableTo(u.NullT, tt) {
		t.Error("NIL assignable to object type")
	}
	if u.AssignableTo(u.NullT, u.IntT) {
		t.Error("NIL not assignable to INTEGER")
	}
}

func TestStructuralCanonicalization(t *testing.T) {
	p := mustCheck(t, `
MODULE M;
TYPE
  A1 = ARRAY OF INTEGER;
  A2 = ARRAY OF INTEGER;
  R1 = REF INTEGER;
  R2 = REF INTEGER;
  RC = REF CHAR;
VAR a: A1; b: A2;
BEGIN
  a := b;
END M.
`)
	if p.TypeNamed("A1").ID() != p.TypeNamed("A2").ID() {
		t.Error("ARRAY OF INTEGER should canonicalize")
	}
	if p.TypeNamed("R1").ID() != p.TypeNamed("R2").ID() {
		t.Error("REF INTEGER should canonicalize")
	}
	if p.TypeNamed("R1").ID() == p.TypeNamed("RC").ID() {
		t.Error("REF INTEGER and REF CHAR must differ")
	}
}

func TestMethodBinding(t *testing.T) {
	p := mustCheck(t, `
MODULE M;
TYPE
  Shape = OBJECT id: INTEGER; METHODS area(): INTEGER := ShapeArea; END;
  Circle = Shape OBJECT r: INTEGER; OVERRIDES area := CircleArea; END;
PROCEDURE ShapeArea(self: Shape): INTEGER = BEGIN RETURN 0; END ShapeArea;
PROCEDURE CircleArea(self: Circle): INTEGER = BEGIN RETURN self.r; END CircleArea;
VAR c: Circle;
BEGIN
  c := NEW(Circle);
  PutInt(c.area());
END M.
`)
	sh := p.TypeNamed("Shape").(*types.Object)
	ci := p.TypeNamed("Circle").(*types.Object)
	if got := sh.Implementation("area"); got != "ShapeArea" {
		t.Errorf("Shape.area impl: %q", got)
	}
	if got := ci.Implementation("area"); got != "CircleArea" {
		t.Errorf("Circle.area impl: %q", got)
	}
	// The call in the body resolves as a method call.
	var found bool
	for _, ci := range p.Calls {
		if ci.Kind == MethodCall && ci.Method.Name == "area" {
			found = true
		}
	}
	if !found {
		t.Error("method call not resolved")
	}
}

func TestAutoDeref(t *testing.T) {
	p := mustCheck(t, `
MODULE M;
TYPE
  R = RECORD a: INTEGER; END;
  PR = REF R;
VAR pr: PR;
BEGIN
  pr := NEW(PR);
  pr.a := 5;
  pr^.a := 6;
END M.
`)
	_ = p
}

func TestTypeErrors(t *testing.T) {
	checkErr(t, `MODULE M; VAR x: INTEGER; BEGIN x := TRUE; END M.`, "cannot assign")
	checkErr(t, `MODULE M; BEGIN y := 1; END M.`, "undefined")
	checkErr(t, `MODULE M; VAR x: Undefined; BEGIN END M.`, "undefined type")
	checkErr(t, `MODULE M; TYPE T = OBJECT END; VAR t: T; BEGIN t.nope := 1; END M.`, "no field")
	checkErr(t, `MODULE M; VAR x: INTEGER; BEGIN IF x THEN END; END M.`, "BOOLEAN")
	checkErr(t, `MODULE M; BEGIN EXIT; END M.`, "EXIT outside loop")
	checkErr(t, `MODULE M; VAR x: INTEGER; BEGIN x := x[0]; END M.`, "cannot subscript")
	checkErr(t, `MODULE M; VAR x: INTEGER; BEGIN x^ := 1; END M.`, "cannot dereference")
	checkErr(t, `
MODULE M;
TYPE T = OBJECT END; S = T OBJECT END;
VAR t: T; s: S;
BEGIN s := t; END M.`, "cannot assign")
	checkErr(t, `
MODULE M;
PROCEDURE P(VAR x: INTEGER) = BEGIN x := 1; END P;
BEGIN P(3); END M.`, "VAR argument must be a designator")
	checkErr(t, `
MODULE M;
TYPE A = ARRAY OF INTEGER;
VAR a: A;
BEGIN a := NEW(A); END M.`, "requires a length")
	checkErr(t, `
MODULE M;
PROCEDURE F(): INTEGER = BEGIN RETURN; END F;
BEGIN END M.`, "RETURN without value")
	checkErr(t, `MODULE M; TYPE B = B OBJECT w: INTEGER; END; BEGIN END M.`, "test.m3:1:20: object type cycle through B")
	checkErr(t, `MODULE M; TYPE A = B OBJECT END; B = A OBJECT END; BEGIN END M.`, "test.m3:1:38: object type cycle through B")
}

func TestVarParamTypeEquality(t *testing.T) {
	// VAR actuals must have the identical type (Modula-3 rule that
	// open-world AddressTaken relies on).
	checkErr(t, `
MODULE M;
TYPE T = OBJECT END; S = T OBJECT END;
PROCEDURE P(VAR x: T) = BEGIN END P;
VAR s: S;
BEGIN P(s); END M.`, "must equal formal type")
}

func TestForLoopIndexImmutable(t *testing.T) {
	checkErr(t, `
MODULE M;
PROCEDURE P() =
BEGIN
  FOR i := 0 TO 10 DO i := 5; END;
END P;
END M.`, "cannot assign to FOR index")
}

func TestWithBinding(t *testing.T) {
	p := mustCheck(t, `
MODULE M;
TYPE T = OBJECT f: INTEGER; END;
VAR t: T;
BEGIN
  t := NEW(T);
  WITH x = t.f DO x := 3; END;
  WITH v = 1 + 2 DO t.f := v; END;
END M.
`)
	var aliasCount, valueCount int
	for _, v := range p.WithSyms {
		if v.WithExpr != nil {
			aliasCount++
		} else {
			valueCount++
		}
	}
	if aliasCount != 1 || valueCount != 1 {
		t.Errorf("with bindings: alias=%d value=%d", aliasCount, valueCount)
	}
	// Assigning through a value WITH binding is an error.
	checkErr(t, `
MODULE M;
BEGIN
  WITH v = 1 + 2 DO v := 3; END;
END M.`, "cannot assign to value WITH binding")
}

func TestBuiltins(t *testing.T) {
	mustCheck(t, `
MODULE M;
TYPE A = ARRAY OF INTEGER;
VAR a: A; n: INTEGER; c: CHAR; s: TEXT;
BEGIN
  a := NEW(A, 10);
  n := NUMBER(a);
  n := ABS(-3) + MIN(1, 2) + MAX(3, 4) + ORD('x');
  c := CHR(65);
  INC(n); DEC(n, 2);
  s := IntToText(n) & "!";
  PutInt(TextLen(s)); PutChar(TextChar(s, 0)); PutText(s); PutLn();
  Assert(n >= 0);
END M.
`)
	checkErr(t, `MODULE M; VAR n: INTEGER; BEGIN n := NUMBER(n); END M.`, "NUMBER requires an open array")
	checkErr(t, `MODULE M; BEGIN INC(5); END M.`, "INC/DEC require a designator")
}

func TestBrandedRecorded(t *testing.T) {
	p := mustCheck(t, `
MODULE M;
TYPE
  B = BRANDED "x" OBJECT v: INTEGER; END;
  U = OBJECT v: INTEGER; END;
BEGIN END M.
`)
	b := p.TypeNamed("B").(*types.Object)
	u := p.TypeNamed("U").(*types.Object)
	if !b.Branded || b.Brand != "x" {
		t.Error("B should be branded")
	}
	if u.Branded {
		t.Error("U should not be branded")
	}
}

func TestRecursiveTypes(t *testing.T) {
	p := mustCheck(t, `
MODULE M;
TYPE
  List = OBJECT head: INTEGER; tail: List; END;
VAR l: List;
BEGIN
  l := NEW(List);
  l.tail := NEW(List);
  l.tail.head := 4;
END M.
`)
	lt := p.TypeNamed("List").(*types.Object)
	if lt.FieldNamed("tail").Type != lt {
		t.Error("recursive field should close the loop")
	}
}

func TestProcedureCalls(t *testing.T) {
	p := mustCheck(t, `
MODULE M;
PROCEDURE Add(a, b: INTEGER): INTEGER = BEGIN RETURN a + b; END Add;
PROCEDURE Swap(VAR a, b: INTEGER) =
VAR t: INTEGER;
BEGIN
  t := a; a := b; b := t;
END Swap;
VAR x, y: INTEGER;
BEGIN
  x := Add(1, 2);
  Swap(x, y);
END M.
`)
	if len(p.Procs) != 2 {
		t.Fatalf("procs: %d", len(p.Procs))
	}
	add := p.ProcByName["Add"]
	if add == nil || len(add.Params) != 2 || isVoidT(add.Result) {
		t.Errorf("Add signature wrong: %+v", add)
	}
	swap := p.ProcByName["Swap"]
	if !swap.Params[0].ByRef() || !swap.Params[1].ByRef() {
		t.Error("Swap params should be by-ref")
	}
}

func isVoidT(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind == types.Void
}

func TestHierarchyExampleFromPaper(t *testing.T) {
	// Figure 1 of the paper.
	p := mustCheck(t, `
MODULE Fig1;
TYPE
  T = OBJECT f, g: T; END;
  S1 = T OBJECT a: INTEGER; END;
  S2 = T OBJECT b: INTEGER; END;
  S3 = T OBJECT c: INTEGER; END;
VAR
  t: T;
  s: S1;
  u: S2;
BEGIN
  t := NEW(T); s := NEW(S1); u := NEW(S2);
END Fig1.
`)
	u := p.Universe
	tT := p.TypeNamed("T")
	tS1 := p.TypeNamed("S1")
	tS2 := p.TypeNamed("S2")
	// Paper Section 2.2: t~s and t~u may alias; s~u may not.
	if !u.SubtypesIntersect(tT, tS1) {
		t.Error("Subtypes(T) ∩ Subtypes(S1) should be non-empty")
	}
	if !u.SubtypesIntersect(tT, tS2) {
		t.Error("Subtypes(T) ∩ Subtypes(S2) should be non-empty")
	}
	if u.SubtypesIntersect(tS1, tS2) {
		t.Error("Subtypes(S1) ∩ Subtypes(S2) should be empty")
	}
}

func TestModuleBodyChecked(t *testing.T) {
	if _, err := parser.Parse("x", "MODULE M; BEGIN x := 1; END M."); err != nil {
		t.Skip("parse failed unexpectedly")
	}
	checkErr(t, "MODULE M; BEGIN x := 1; END M.", "undefined")
}

func TestPrintedProgramChecks(t *testing.T) {
	m, err := parser.Parse("h.m3", hierarchySrc)
	if err != nil {
		t.Fatal(err)
	}
	printed := ast.Print(m)
	m2, err := parser.Parse("h2.m3", printed)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, printed)
	}
	if _, err := Check(m2); err != nil {
		t.Fatalf("recheck: %v", err)
	}
}
