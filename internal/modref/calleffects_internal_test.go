package modref

import (
	"testing"

	"tbaa/internal/ir"
	"tbaa/internal/lower"
	"tbaa/internal/parser"
	"tbaa/internal/sema"
)

// callSrc has two method calls on one receiver type, one on another,
// and direct calls, so the memo's keys are observable.
const callSrc = `
MODULE Calls;
TYPE
  B  = OBJECT v: INTEGER; METHODS m() := BM; n() := BN; END;
  C  = B OBJECT OVERRIDES m := CM; END;
  D  = OBJECT w: INTEGER; METHODS m() := DM; END;
VAR
  b: B;
  d: D;
  g: INTEGER;

PROCEDURE BM(self: B) = BEGIN g := 1; END BM;
PROCEDURE BN(self: B) = BEGIN self.v := 2; END BN;
PROCEDURE CM(self: B) = BEGIN self.v := 3; END CM;
PROCEDURE DM(self: D) = BEGIN self.w := 4; END DM;
PROCEDURE Leaf() = BEGIN g := 5; END Leaf;

BEGIN
  b := NEW(C);
  d := NEW(D);
  b.m();
  b.m();
  b.n();
  d.m();
  Leaf();
  Leaf();
END Calls.
`

func compileCalls(t *testing.T) *ir.Program {
	t.Helper()
	m, err := parser.Parse("calls.m3", callSrc)
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

func calls(prog *ir.Program) []*ir.Instr {
	var out []*ir.Instr
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Op == ir.OpCall || in.Op == ir.OpMethodCall {
					out = append(out, in)
				}
			}
		}
	}
	return out
}

// TestCallEffectsSharedAcrossCopies pins the memo's key: a copied call
// instruction — what every block rewrite produces — answers with the
// same *Effects as the original, and asking about copies never grows
// the memo, so it holds no pointers into replaced instruction arrays.
func TestCallEffectsSharedAcrossCopies(t *testing.T) {
	for _, cfg := range []Config{{}, {RTA: true}} {
		prog := compileCalls(t)
		mr := ComputeWith(prog, cfg)
		cs := calls(prog)
		methods := 0
		want := make([]*Effects, len(cs))
		for i, in := range cs {
			if in.Op == ir.OpMethodCall {
				methods++
			}
			want[i] = mr.CallEffects(in)
			if want[i] == nil {
				t.Fatalf("RTA=%v: no effects for %s", cfg.RTA, in)
			}
		}
		if methods < 4 {
			t.Fatalf("source lowered to %d method calls, want 4", methods)
		}
		// b.m twice, b.n, d.m: three distinct (receiver type, method).
		if got := len(mr.effMemo); got != 3 {
			t.Fatalf("RTA=%v: memo has %d entries after the originals, want 3", cfg.RTA, got)
		}
		for round := 0; round < 50; round++ {
			for i, in := range cs {
				cp := *in
				if got := mr.CallEffects(&cp); got != want[i] {
					t.Fatalf("RTA=%v: copy of %s got a different *Effects", cfg.RTA, in)
				}
			}
		}
		if got := len(mr.effMemo); got != 3 {
			t.Fatalf("RTA=%v: memo grew to %d entries with copies, want 3", cfg.RTA, got)
		}
		for _, in := range cs {
			if in.Op == ir.OpCall && mr.CallEffects(in) != mr.byProc[prog.ProcByName[in.Callee]] {
				t.Errorf("RTA=%v: direct call %s must answer with its callee's summary", cfg.RTA, in)
			}
		}
		// Calls to undefined procedures share one summary: Top under
		// RTA, empty without.
		u1 := mr.CallEffects(&ir.Instr{Op: ir.OpCall, Callee: "Nowhere"})
		u2 := mr.CallEffects(&ir.Instr{Op: ir.OpCall, Callee: "Elsewhere"})
		if u1 != u2 {
			t.Errorf("RTA=%v: undefined callees got distinct summaries", cfg.RTA)
		}
		if u1.Top != cfg.RTA {
			t.Errorf("RTA=%v: undefined callee Top=%v", cfg.RTA, u1.Top)
		}
	}
}
