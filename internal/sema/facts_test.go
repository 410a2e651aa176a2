package sema

import (
	"runtime"
	"testing"
	"weak"

	"tbaa/internal/ast"
	"tbaa/internal/bench"
	"tbaa/internal/parser"
)

// size counts the facts recorded, the way a node-keyed table counts
// its entries.
func (f *Facts) size() int {
	n := len(f.consts) + len(f.calls)
	for i := range f.types {
		if f.types[i] != nil {
			n++
		}
		if f.syms[i] != nil {
			n++
		}
	}
	return n
}

func (p *Program) factsSize() int {
	n := p.Facts.size()
	for _, q := range p.Procs {
		n += q.Facts.size()
	}
	return n
}

func parseEdit(t *testing.T, src string) *ast.ProcDecl {
	t.Helper()
	m, err := parser.Parse("edit.m3", "MODULE EditM3; "+src+" BEGIN END EditM3.")
	if err != nil {
		t.Fatal(err)
	}
	return m.Decls[0].(*ast.ProcDecl)
}

var addBlockEdits = [2]string{`
PROCEDURE AddBlock(p: Proc): Block =
VAR b: Block;
BEGIN
  b := NEW(Block);
  b.id := p.nblocks;
  IF p.lastBlock = NIL THEN p.blocks := b; ELSE p.lastBlock.next := b; END;
  p.lastBlock := b;
  INC(p.nblocks);
  RETURN b;
END AddBlock;`, `
PROCEDURE AddBlock(p: Proc): Block =
VAR b: Block;
BEGIN
  b := NEW(Block);
  b.id := p.nblocks + 0;
  p.lastBlock := b;
  RETURN b;
END AddBlock;`}

// TestEditsLeaveNoFactsBehind replaces m3cg's AddBlock back and forth:
// the checker's record of the module must be the same size after every
// edit of the same body, a rejected edit must add nothing, and a
// replaced edit's body must become garbage. (The module's own body
// stays: Program.Module is the source as compiled.)
func TestEditsLeaveNoFactsBehind(t *testing.T) {
	bm, _ := bench.ByName("m3cg")
	p := mustCheck(t, bm.Source)
	var want [2]int
	for i := 0; i < 100; i++ {
		if _, err := p.ReplaceProc(parseEdit(t, addBlockEdits[i%2])); err != nil {
			t.Fatal(err)
		}
		got := p.factsSize()
		if i < 2 {
			want[i] = got
		} else if got != want[i%2] {
			t.Fatalf("edit %d: %d facts recorded, %d after the same edit before", i, got, want[i%2])
		}
	}

	before := p.factsSize()
	if _, err := p.ReplaceProc(parseEdit(t, `
PROCEDURE AddBlock(p: Proc): Block =
BEGIN
  RETURN p.nblocks;
END AddBlock;`)); err == nil {
		t.Fatal("an edit returning INTEGER as Block checked")
	}
	if got := p.factsSize(); got != before {
		t.Errorf("a rejected edit changed the facts recorded from %d to %d", before, got)
	}

	old := replacedBody(t, p)
	runtime.GC()
	if old.Value() != nil {
		t.Error("a replaced procedure body is still reachable after the edit")
	}
	runtime.KeepAlive(p)
}

// replacedBody installs an edit of AddBlock, replaces it with another,
// and returns a weak pointer to an expression of the replaced body.
func replacedBody(t *testing.T, p *Program) weak.Pointer[ast.NewExpr] {
	d := parseEdit(t, addBlockEdits[0])
	if _, err := p.ReplaceProc(d); err != nil {
		t.Fatal(err)
	}
	w := weak.Make(d.Body[0].(*ast.AssignStmt).RHS.(*ast.NewExpr))
	if _, err := p.ReplaceProc(parseEdit(t, addBlockEdits[1])); err != nil {
		t.Fatal(err)
	}
	return w
}
