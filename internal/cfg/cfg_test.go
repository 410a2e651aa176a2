package cfg_test

import (
	"testing"

	"tbaa/internal/cfg"
	"tbaa/internal/driver"
	"tbaa/internal/ir"
)

func compileProc(t *testing.T, src, name string) *ir.Proc {
	t.Helper()
	prog, _, err := driver.Compile("t.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.ProcByName[name]
	if p == nil {
		t.Fatalf("no procedure %s", name)
	}
	p.ComputeCFGEdges()
	return p
}

const loopy = `
MODULE M;
PROCEDURE F(n: INTEGER): INTEGER =
VAR i, j, acc: INTEGER;
BEGIN
  acc := 0;
  FOR i := 1 TO n DO
    FOR j := 1 TO n DO
      acc := acc + i * j;
    END;
  END;
  WHILE acc > 100 DO
    acc := acc DIV 2;
  END;
  RETURN acc;
END F;
BEGIN
END M.
`

func TestReversePostorder(t *testing.T) {
	p := compileProc(t, loopy, "F")
	rpo := cfg.ReversePostorder(p)
	if len(rpo) == 0 || rpo[0] != p.Entry {
		t.Fatal("RPO must start at entry")
	}
	// Every reachable block appears exactly once.
	seen := map[*ir.Block]bool{}
	for _, b := range rpo {
		if seen[b] {
			t.Errorf("block b%d repeated", b.ID)
		}
		seen[b] = true
	}
	// RPO property: each block's index precedes its dominated successors.
	idx := map[*ir.Block]int{}
	for i, b := range rpo {
		idx[b] = i
	}
	dom := cfg.ComputeDominators(p)
	for _, b := range rpo {
		for _, s := range b.Succs {
			if dom.Dominates(b, s) && b != s && idx[s] < idx[b] {
				t.Errorf("dominator b%d ordered after dominated b%d", b.ID, s.ID)
			}
		}
	}
}

func TestDominators(t *testing.T) {
	p := compileProc(t, loopy, "F")
	dom := cfg.ComputeDominators(p)
	// Entry dominates everything reachable.
	for _, b := range cfg.ReversePostorder(p) {
		if !dom.Dominates(p.Entry, b) {
			t.Errorf("entry must dominate b%d", b.ID)
		}
		if !dom.Dominates(b, b) {
			t.Errorf("dominance must be reflexive (b%d)", b.ID)
		}
	}
	// Idom chain terminates at entry.
	for _, b := range cfg.ReversePostorder(p) {
		steps := 0
		for x := b; x != p.Entry; x = dom.Idom(x) {
			steps++
			if steps > len(p.Blocks) {
				t.Fatalf("idom chain from b%d does not reach entry", b.ID)
			}
		}
	}
}

func TestFindLoops(t *testing.T) {
	p := compileProc(t, loopy, "F")
	dom := cfg.ComputeDominators(p)
	loops := cfg.FindLoops(p, dom)
	if len(loops) != 3 {
		t.Fatalf("expected 3 loops (two nested FOR + one WHILE), got %d", len(loops))
	}
	var depth1, depth2 int
	for _, l := range loops {
		switch l.Depth {
		case 1:
			depth1++
		case 2:
			depth2++
		}
		// The header is in the loop; latches are in the loop.
		if !l.Contains(l.Header) {
			t.Error("loop must contain its header")
		}
		for _, latch := range l.Latches {
			if !l.Contains(latch) {
				t.Error("loop must contain its latches")
			}
			if !dom.Dominates(l.Header, latch) {
				t.Error("header must dominate latches")
			}
		}
	}
	if depth1 != 2 || depth2 != 1 {
		t.Errorf("nesting: depth1=%d depth2=%d, want 2 and 1", depth1, depth2)
	}
}

func TestLoopNesting(t *testing.T) {
	p := compileProc(t, loopy, "F")
	dom := cfg.ComputeDominators(p)
	loops := cfg.FindLoops(p, dom)
	var inner *cfg.Loop
	for _, l := range loops {
		if l.Depth == 2 {
			inner = l
		}
	}
	if inner == nil || inner.Parent == nil {
		t.Fatal("inner loop must have a parent")
	}
	if !inner.Parent.Blocks[inner.Header] {
		t.Error("parent must contain inner header")
	}
}

func TestEnsurePreheader(t *testing.T) {
	p := compileProc(t, loopy, "F")
	dom := cfg.ComputeDominators(p)
	loops := cfg.FindLoops(p, dom)
	for _, l := range loops {
		ph := cfg.EnsurePreheader(p, l)
		if ph == nil {
			t.Fatal("no preheader")
		}
		if l.Blocks[ph] {
			t.Error("preheader must be outside the loop")
		}
		if len(ph.Succs) != 1 || ph.Succs[0] != l.Header {
			t.Errorf("preheader must jump only to the header, got %d succs", len(ph.Succs))
		}
		// Idempotent.
		if again := cfg.EnsurePreheader(p, l); again != ph {
			t.Error("EnsurePreheader must be idempotent")
		}
	}
	// CFG still consistent: edges recomputed, entry reachable everything.
	dom2 := cfg.ComputeDominators(p)
	for _, b := range cfg.ReversePostorder(p) {
		if !dom2.Dominates(p.Entry, b) {
			t.Errorf("entry no longer dominates b%d after preheaders", b.ID)
		}
	}
}

func TestExitBlocks(t *testing.T) {
	p := compileProc(t, loopy, "F")
	dom := cfg.ComputeDominators(p)
	loops := cfg.FindLoops(p, dom)
	for _, l := range loops {
		exits := l.ExitBlocks()
		if len(exits) == 0 {
			t.Error("every loop here terminates: must have exits")
		}
		for _, e := range exits {
			if l.Blocks[e] {
				t.Error("exit block must be outside the loop")
			}
		}
	}
}

func TestIrreducibleSafe(t *testing.T) {
	// EXIT from nested LOOPs produces multi-exit shapes; make sure the
	// analyses stay consistent.
	p := compileProc(t, `
MODULE M;
PROCEDURE G(n: INTEGER): INTEGER =
VAR x: INTEGER;
BEGIN
  x := 0;
  LOOP
    INC(x);
    LOOP
      INC(x, 2);
      IF x > n THEN EXIT; END;
      IF x MOD 7 = 0 THEN EXIT; END;
    END;
    IF x > n THEN EXIT; END;
  END;
  RETURN x;
END G;
BEGIN
END M.
`, "G")
	dom := cfg.ComputeDominators(p)
	loops := cfg.FindLoops(p, dom)
	if len(loops) != 2 {
		t.Fatalf("expected 2 loops, got %d", len(loops))
	}
	for _, l := range loops {
		cfg.EnsurePreheader(p, l)
	}
	dom = cfg.ComputeDominators(p)
	for _, b := range cfg.ReversePostorder(p) {
		if !dom.Dominates(p.Entry, b) {
			t.Errorf("entry must dominate b%d", b.ID)
		}
	}
}
