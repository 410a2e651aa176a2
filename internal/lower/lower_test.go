package lower_test

import (
	"strings"
	"testing"

	"tbaa/internal/bench"
	"tbaa/internal/driver"
	"tbaa/internal/ir"
	"tbaa/internal/lower"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, _, err := driver.Compile("t.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// instrs flattens a procedure's instructions.
func instrs(p *ir.Proc) []*ir.Instr {
	var out []*ir.Instr
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			out = append(out, &b.Instrs[i])
		}
	}
	return out
}

func TestSubscriptExpandsDopeVector(t *testing.T) {
	prog := compile(t, `
MODULE M;
TYPE A = ARRAY OF INTEGER;
VAR a: A; x: INTEGER;
BEGIN
  a := NEW(A, 4);
  x := a[2];
END M.
`)
	var dopeLoads, elemLoads int
	for _, in := range instrs(prog.Main) {
		if in.Op != ir.OpLoad {
			continue
		}
		if in.AP.IsDope() {
			dopeLoads++
			if in.Sel.Kind != ir.SelDopeElems && in.Sel.Kind != ir.SelDopeLen {
				t.Errorf("dope AP with selector %v", in.Sel.Kind)
			}
		} else if in.Sel.Kind == ir.SelIndex {
			elemLoads++
			// Source-level subscript APs do not mention the dope step.
			if strings.Contains(in.AP.String(), "{elems}") {
				t.Errorf("source AP leaked dope step: %s", in.AP)
			}
		}
	}
	if dopeLoads != 1 || elemLoads != 1 {
		t.Errorf("expected 1 dope + 1 element load, got %d + %d", dopeLoads, elemLoads)
	}
}

func TestNumberLowersToDopeLen(t *testing.T) {
	prog := compile(t, `
MODULE M;
TYPE A = ARRAY OF INTEGER;
VAR a: A; n: INTEGER;
BEGIN
  a := NEW(A, 4);
  n := NUMBER(a);
END M.
`)
	found := false
	for _, in := range instrs(prog.Main) {
		if in.Op == ir.OpLoad && in.Sel.Kind == ir.SelDopeLen {
			found = true
		}
	}
	if !found {
		t.Error("NUMBER must lower to a dope-length load")
	}
}

func TestMergesRecorded(t *testing.T) {
	prog := compile(t, `
MODULE M;
TYPE
  T = OBJECT f: T; END;
  S = T OBJECT a: INTEGER; END;
VAR t: T; s: S;
PROCEDURE P(x: T) = BEGIN END P;
PROCEDURE Q(): T =
BEGIN
  RETURN s;
END Q;
BEGIN
  s := NEW(S);
  t := s;      (* explicit assignment merge *)
  t.f := s;    (* field store merge *)
  P(s);        (* parameter binding merge *)
  t := Q();    (* return merge is S->T inside Q *)
END M.
`)
	if len(prog.Merges) < 4 {
		t.Errorf("expected at least 4 merges, got %d", len(prog.Merges))
	}
	// Every merge pairs distinct reference types.
	for _, m := range prog.Merges {
		if m.Dst.ID() == m.Src.ID() {
			t.Errorf("self-merge recorded: %s", m.Dst)
		}
		if !m.Dst.IsReference() || !m.Src.IsReference() {
			t.Errorf("non-reference merge: %s := %s", m.Dst, m.Src)
		}
	}
}

func TestAddressTakenRecording(t *testing.T) {
	prog := compile(t, `
MODULE M;
TYPE
  T = OBJECT f, g: INTEGER; END;
  A = ARRAY OF INTEGER;
PROCEDURE P(VAR x: INTEGER) = BEGIN x := 1; END P;
VAR t: T; a: A; loc: INTEGER;
BEGIN
  t := NEW(T);
  a := NEW(A, 2);
  P(t.f);        (* field address taken *)
  P(a[0]);       (* element address taken *)
  P(loc);        (* variable address taken *)
  WITH w = t.g DO w := 2; END; (* WITH alias takes an address too *)
END M.
`)
	if len(prog.AddressTakenFields) != 2 {
		t.Errorf("expected 2 address-taken fields (f, g), got %v", prog.AddressTakenFields)
	}
	if len(prog.AddressTakenElems) != 1 {
		t.Errorf("expected 1 address-taken array, got %v", prog.AddressTakenElems)
	}
	var locTaken bool
	for v := range prog.AddressTakenVars {
		if v.Name == "loc" {
			locTaken = true
		}
	}
	if !locTaken {
		t.Error("variable loc's address should be recorded")
	}
	if prog.ByRefFormalTypes[prog.Universe.IntT.ID()] != true {
		t.Error("INTEGER should be a by-ref formal type")
	}
}

func TestShortCircuitLowersToBranches(t *testing.T) {
	prog := compile(t, `
MODULE M;
VAR a, b: BOOLEAN; x: INTEGER;
BEGIN
  a := TRUE;
  b := FALSE;
  IF a AND b THEN x := 1; END;
  IF a OR b THEN x := 2; END;
END M.
`)
	// No OpBin with And/Or must survive lowering.
	for _, in := range instrs(prog.Main) {
		if in.Op == ir.OpBin {
			s := in.String()
			if strings.Contains(s, " AND ") || strings.Contains(s, " OR ") {
				t.Errorf("short-circuit operator survived lowering: %s", s)
			}
		}
	}
}

func TestRecordAssignExpands(t *testing.T) {
	prog := compile(t, `
MODULE M;
TYPE R = RECORD x, y, z: INTEGER; END;
VAR a, b: R;
BEGIN
  a.x := 1; a.y := 2; a.z := 3;
  b := a;
END M.
`)
	var fieldStores int
	for _, in := range instrs(prog.Main) {
		if in.Op == ir.OpStoreVarField {
			fieldStores++
		}
	}
	// 3 explicit stores + 3 from the aggregate expansion.
	if fieldStores != 6 {
		t.Errorf("aggregate assignment should expand to per-field stores: %d", fieldStores)
	}
}

func TestSSAFormOfRegisters(t *testing.T) {
	// Every register is assigned by at most one instruction (single
	// assignment by construction) — RLE's chain analysis depends on it.
	prog := compile(t, `
MODULE M;
TYPE T = OBJECT f: INTEGER; END;
VAR t: T; i, x: INTEGER;
BEGIN
  t := NEW(T);
  FOR i := 1 TO 10 DO
    IF i MOD 2 = 0 THEN
      x := x + t.f;
    ELSE
      x := x - t.f;
    END;
  END;
  PutInt(x);
END M.
`)
	for _, p := range prog.Procs {
		defs := map[ir.Reg]int{}
		for _, in := range instrs(p) {
			if r := in.DefinedReg(); r != ir.NoReg {
				defs[r]++
			}
		}
		for r, n := range defs {
			if n > 1 {
				t.Errorf("%s: register r%d defined %d times", p.Name, r, n)
			}
		}
	}
}

func TestEveryBlockTerminates(t *testing.T) {
	prog := compile(t, `
MODULE M;
PROCEDURE F(n: INTEGER): INTEGER =
BEGIN
  IF n > 0 THEN RETURN n; END;
  RETURN 0;
END F;
VAR x: INTEGER;
BEGIN
  x := F(3);
  WHILE x > 0 DO DEC(x); END;
END M.
`)
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			if len(b.Instrs) == 0 {
				continue // unreachable filler blocks are tolerated
			}
			if !b.Instrs[len(b.Instrs)-1].IsTerminator() {
				t.Errorf("%s b%d does not end in a terminator", p.Name, b.ID)
			}
			for i := 0; i < len(b.Instrs)-1; i++ {
				if b.Instrs[i].IsTerminator() {
					t.Errorf("%s b%d has a terminator mid-block", p.Name, b.ID)
				}
			}
		}
	}
}

func TestByRefFormalAccessIsDeref(t *testing.T) {
	prog := compile(t, `
MODULE M;
PROCEDURE P(VAR x: INTEGER) =
BEGIN
  x := x + 1;
END P;
VAR v: INTEGER;
BEGIN
  P(v);
END M.
`)
	p := prog.ProcByName["P"]
	var loads, stores int
	for _, in := range instrs(p) {
		switch in.Op {
		case ir.OpLoad:
			loads++
			if in.AP.String() != "x^" {
				t.Errorf("by-ref read AP = %s, want x^", in.AP)
			}
		case ir.OpStore:
			stores++
			if in.AP.String() != "x^" {
				t.Errorf("by-ref write AP = %s, want x^", in.AP)
			}
		}
	}
	if loads != 1 || stores != 1 {
		t.Errorf("expected 1 load + 1 store through the formal, got %d + %d", loads, stores)
	}
}

func TestMethodCallCarriesReceiverType(t *testing.T) {
	prog := compile(t, `
MODULE M;
TYPE B = OBJECT METHODS m() := BM; END;
PROCEDURE BM(self: B) = BEGIN END BM;
VAR b: B;
BEGIN
  b := NEW(B);
  b.m();
END M.
`)
	var found bool
	for _, in := range instrs(prog.Main) {
		if in.Op == ir.OpMethodCall {
			found = true
			if in.RecvType == nil || in.RecvType.Name != "B" {
				t.Errorf("method call missing static receiver type: %v", in.RecvType)
			}
		}
	}
	if !found {
		t.Error("no method call lowered")
	}
}

// TestBlocksExactSize pins that lowering keeps no spare capacity: every
// block of every stock benchmark holds its instructions in an array of
// exactly their number, after a full lowering and after re-lowering a
// procedure in place.
func TestBlocksExactSize(t *testing.T) {
	check := func(name string, p *ir.Proc) {
		for _, b := range p.Blocks {
			if cap(b.Instrs) != len(b.Instrs) {
				t.Errorf("%s: %s b%d holds %d instrs with capacity %d",
					name, p.Name, b.ID, len(b.Instrs), cap(b.Instrs))
			}
		}
	}
	for _, bm := range bench.All() {
		c, err := driver.Frontend(bm.Name+".m3", bm.Source)
		if err != nil {
			t.Fatal(err)
		}
		prog := c.Lower()
		for _, p := range prog.Procs {
			check(bm.Name, p)
		}
		for _, sp := range c.Sema.Procs {
			check(bm.Name+" re-lowered", lower.LowerProcInto(prog, c.Sema, sp))
		}
	}
}
