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

// TestJoinStatesCopyOnWrite pins how joinStates treats its inputs: a
// set no other predecessor adds to is shared, not cloned; a set some
// predecessor widens is a fresh union; and no input set is edited.
func TestJoinStatesCopyOnWrite(t *testing.T) {
	x, y := &ir.Var{Name: "x"}, &ir.Var{Name: "y"}
	ap := &ir.AP{Root: x, Sels: []ir.APSel{{Kind: ir.SelField, Field: "f"}}}
	x0, x1 := bits(1), bits(1)
	y0, y1 := bits(1), bits(1, 70)
	p0, p1 := bits(2), bits(3)
	preds := []flowState{
		{vars: map[*ir.Var]types.Bitset{x: x0, y: y0}, paths: map[string]pathFact{"x.f": {ap, p0}}},
		{vars: map[*ir.Var]types.Bitset{x: x1, y: y1}, paths: map[string]pathFact{"x.f": {ap, p1}}},
	}
	out := joinStates(preds)
	if got := out.vars[x]; &got[0] != &x0[0] {
		t.Error("x: no predecessor adds bits, yet the join cloned the set")
	}
	if got := out.vars[y]; !got.Equal(bits(1, 70)) || &got[0] == &y0[0] || &got[0] == &y1[0] {
		t.Errorf("y: want a fresh {1,70}, got %v", got.IDs())
	}
	if got := out.paths["x.f"].set; !got.Equal(bits(2, 3)) || &got[0] == &p0[0] {
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
}
