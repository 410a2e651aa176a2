package lower

import (
	"slices"
	"testing"

	"tbaa/internal/ir"
	"tbaa/internal/types"
)

// TestDedupMerges pins dedupMerges to the set semantics it replaces: an
// appended pair is dropped when the prefix or an earlier appended
// entry already records it, the prefix is never touched, and survivors
// keep their order.
func TestDedupMerges(t *testing.T) {
	u := types.NewUniverse()
	a := u.NewObject("A", nil, false, "")
	b := u.NewObject("B", a, false, "")
	c := u.NewObject("C", a, false, "")
	m := func(dst, src types.Type) ir.Merge { return ir.Merge{Dst: dst, Src: src} }
	prefix := []ir.Merge{m(a, b), m(b, b), m(a, b)}
	cases := []struct {
		name     string
		appended []ir.Merge
		want     []ir.Merge
	}{
		{"nothing appended", nil, nil},
		{"all recorded", []ir.Merge{m(b, b), m(a, b)}, nil},
		{"new pairs kept in order", []ir.Merge{m(c, a), m(a, c)}, []ir.Merge{m(c, a), m(a, c)}},
		{"repeat within the suffix", []ir.Merge{m(c, a), m(a, b), m(c, a), m(a, c)}, []ir.Merge{m(c, a), m(a, c)}},
		{"same target, new source", []ir.Merge{m(a, c), m(a, a)}, []ir.Merge{m(a, c), m(a, a)}},
	}
	for _, tc := range cases {
		merges := append(slices.Clone(prefix), tc.appended...)
		got := dedupMerges(merges, len(prefix))
		if !slices.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("%s: prefix rewritten: %v", tc.name, got[:len(prefix)])
		}
		if rest := got[len(prefix):]; !slices.Equal(rest, tc.want) && len(rest)+len(tc.want) > 0 {
			t.Errorf("%s: kept %v, want %v", tc.name, rest, tc.want)
		}
	}
}
