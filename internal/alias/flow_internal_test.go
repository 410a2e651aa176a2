package alias

import (
	"testing"

	"tbaa/internal/ir"
	"tbaa/internal/types"
)

func bits(ids ...int) types.Bitset {
	var b types.Bitset
	for _, id := range ids {
		b.Add(id)
	}
	return b
}

// TestJoinStatesCopyOnWrite pins how the solver's join treats the
// predecessor exits: a set no other predecessor adds to is shared, not
// cloned; a set some predecessor widens is a fresh union; a path fact
// survives only where every predecessor holds one for an Equal path;
// and no exit set is edited.
func TestJoinStatesCopyOnWrite(t *testing.T) {
	x, y := &ir.Var{Name: "x"}, &ir.Var{Name: "y"}
	ap := &ir.AP{Root: x, Sels: []ir.APSel{{Kind: ir.SelField, Field: "f"}}}
	// Another path rendering as y.g but not Equal to it: its root is a
	// different variable of the same name.
	yg := &ir.AP{Root: y, Sels: []ir.APSel{{Kind: ir.SelField, Field: "g"}}}
	yg2 := &ir.AP{Root: &ir.Var{Name: "y"}, Sels: []ir.APSel{{Kind: ir.SelField, Field: "g"}}}
	x0, x1 := bits(1), bits(1)
	y0, y1 := bits(1), bits(1, 70)
	p0, p1 := bits(2), bits(3)
	// Blocks 0 and 1 are the predecessors of block 2.
	const n, m = 2, 3
	s := &solver{
		slots:     []*ir.Var{x, y},
		cells:     make([]cell, 2*n*m),
		owned:     make([]bool, n),
		inPaths:   make([][]pathFact, m),
		outPaths:  make([][]pathFact, m),
		done:      []bool{true, true, false},
		changedAt: []uint32{1, 2, 0},
		joinedAt:  make([]uint32, m),
		clock:     2,
		preds:     []int32{0, 1},
		predOff:   []int32{0, 0, 0, 2},
	}
	copy(s.cells[1*n:], []cell{{x0, true}, {y0, true}})
	copy(s.cells[3*n:], []cell{{x1, true}, {y1, true}})
	s.outPaths[0] = []pathFact{{0, ap, p0}, {1, yg, bits(4)}}
	s.outPaths[1] = []pathFact{{0, ap, p1}, {1, yg2, bits(4)}}
	if !s.join(2) {
		t.Fatal("join of two changed predecessors reported no transfer")
	}
	in := s.cells[4*n : 5*n]
	if got := in[0].set; !in[0].ok || &got[0] != &x0[0] {
		t.Error("x: no predecessor adds bits, yet the join cloned the set")
	}
	if got := in[1].set; !in[1].ok || !got.Equal(bits(1, 70)) || &got[0] == &y0[0] || &got[0] == &y1[0] {
		t.Errorf("y: want a fresh {1,70}, got %v", got.IDs())
	}
	paths := s.inPaths[2]
	if len(paths) != 1 || paths[0].ap != ap {
		t.Fatalf("want only the x.f fact to survive, got %d facts", len(paths))
	}
	if got := paths[0].set; !got.Equal(bits(2, 3)) || &got[0] == &p0[0] {
		t.Errorf("x.f: want a fresh {2,3}, got %v", got.IDs())
	}
	for name, pair := range map[string][2]types.Bitset{
		"x0": {x0, bits(1)}, "x1": {x1, bits(1)}, "y0": {y0, bits(1)},
		"y1": {y1, bits(1, 70)}, "p0": {p0, bits(2)}, "p1": {p1, bits(3)},
	} {
		if !pair[0].Equal(pair[1]) {
			t.Errorf("join edited input %s: now %v", name, pair[0].IDs())
		}
	}
	if s.join(2) {
		t.Error("a second join with no predecessor change asked for a transfer")
	}
}
