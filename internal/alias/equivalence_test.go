package alias_test

import (
	"math/rand"
	"testing"

	"tbaa/internal/alias"
	"tbaa/internal/driver"
	"tbaa/internal/ir"
	"tbaa/internal/randprog"
)

// This file pins the bitset-backed TypeRefsTable to the original
// map-of-maps formulation: refTypeRefs* below are line-for-line ports of
// the pre-bitset builders, and the property tests check that the bitset
// oracle answers identically on randomly generated programs.

type refUnionFind struct {
	parent []int
}

func newRefUnionFind(n int) *refUnionFind {
	uf := &refUnionFind{parent: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *refUnionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *refUnionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra != rb {
		uf.parent[rb] = ra
	}
}

// refTypeRefsUnionFind is the old map-based Figure 2 builder.
func refTypeRefsUnionFind(prog *ir.Program, openWorld bool) map[int]map[int]bool {
	u := prog.Universe
	uf := newRefUnionFind(u.NumTypes())
	for _, m := range prog.Merges {
		uf.union(m.Dst.ID(), m.Src.ID())
	}
	if openWorld {
		for _, o := range u.ObjectTypes() {
			if o.Branded || o.Super == nil || o.Super.Branded {
				continue
			}
			uf.union(o.ID(), o.Super.ID())
		}
	}
	groups := make(map[int][]int)
	for _, t := range u.ReferenceTypes() {
		r := uf.find(t.ID())
		groups[r] = append(groups[r], t.ID())
	}
	table := make(map[int]map[int]bool)
	for _, t := range u.ReferenceTypes() {
		g := groups[uf.find(t.ID())]
		subSet := make(map[int]bool)
		for _, id := range u.Subtypes(t) {
			subSet[id] = true
		}
		refs := make(map[int]bool)
		for _, id := range g {
			if subSet[id] {
				refs[id] = true
			}
		}
		refs[t.ID()] = true
		table[t.ID()] = refs
	}
	return table
}

// refTypeRefsPerType is the old map-based footnote-2 builder.
func refTypeRefsPerType(prog *ir.Program, openWorld bool) map[int]map[int]bool {
	u := prog.Universe
	group := make(map[int]map[int]bool)
	for _, t := range u.ReferenceTypes() {
		group[t.ID()] = map[int]bool{t.ID(): true}
	}
	type edge struct{ dst, src int }
	var edges []edge
	for _, m := range prog.Merges {
		edges = append(edges, edge{m.Dst.ID(), m.Src.ID()})
	}
	if openWorld {
		for _, o := range u.ObjectTypes() {
			if o.Branded || o.Super == nil || o.Super.Branded {
				continue
			}
			edges = append(edges, edge{o.Super.ID(), o.ID()}, edge{o.ID(), o.Super.ID()})
		}
	}
	changed := true
	for changed {
		changed = false
		for _, e := range edges {
			gd, gs := group[e.dst], group[e.src]
			if gd == nil || gs == nil {
				continue
			}
			for id := range gs {
				if !gd[id] {
					gd[id] = true
					changed = true
				}
			}
		}
	}
	table := make(map[int]map[int]bool)
	for _, t := range u.ReferenceTypes() {
		subSet := make(map[int]bool)
		for _, id := range u.Subtypes(t) {
			subSet[id] = true
		}
		refs := make(map[int]bool)
		for id := range group[t.ID()] {
			if subSet[id] {
				refs[id] = true
			}
		}
		refs[t.ID()] = true
		table[t.ID()] = refs
	}
	return table
}

func mapsIntersect(a, b map[int]bool) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for id := range a {
		if b[id] {
			return true
		}
	}
	return false
}

// TestBitsetTypeRefsMatchesMapOracle checks, on randprog-generated
// programs, that every TypeRefsTable row and every row-intersection
// (the SMTypeRefs base relation) agrees between the bitset
// implementation and the original map-based one.
func TestBitsetTypeRefsMatchesMapOracle(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(21000); seed < int64(21000+seeds); seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, _, err := driver.Compile("r.m3", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		u := prog.Universe
		for _, openWorld := range []bool{false, true} {
			for _, perType := range []bool{false, true} {
				a := alias.New(prog, alias.Options{
					Level:         alias.LevelSMFieldTypeRefs,
					OpenWorld:     openWorld,
					PerTypeGroups: perType,
				})
				var want map[int]map[int]bool
				if perType {
					want = refTypeRefsPerType(prog, openWorld)
				} else {
					want = refTypeRefsUnionFind(prog, openWorld)
				}
				rts := u.ReferenceTypes()
				for _, t1 := range rts {
					got := a.TypeRefs(t1)
					w := want[t1.ID()]
					if got.Count() != len(w) {
						t.Fatalf("seed %d open=%v perType=%v: TypeRefs(%s) = %v, map oracle %v",
							seed, openWorld, perType, t1, got.IDs(), w)
					}
					for _, id := range got.IDs() {
						if !w[id] {
							t.Fatalf("seed %d: TypeRefs(%s) contains %d, map oracle does not",
								seed, t1, id)
						}
					}
					for _, t2 := range rts {
						g2 := a.TypeRefs(t2)
						if got.Intersects(g2) != mapsIntersect(w, want[t2.ID()]) {
							t.Fatalf("seed %d open=%v perType=%v: intersection of %s and %s disagrees",
								seed, openWorld, perType, t1, t2)
						}
					}
				}
			}
		}
	}
}

// TestMayAliasMemoStable checks that the lazily built partition never
// changes an answer: querying every pair twice (cold then warm), and
// querying a second independent analysis in a shuffled order, all agree.
func TestMayAliasMemoStable(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(31000); seed < int64(31000+seeds); seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, _, err := driver.Compile("r.m3", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, lvl := range []alias.Level{
			alias.LevelTypeDecl, alias.LevelFieldTypeDecl, alias.LevelSMFieldTypeRefs,
		} {
			a1 := alias.New(prog, alias.Options{Level: lvl})
			a2 := alias.New(prog, alias.Options{Level: lvl})
			refs := alias.References(prog)
			if len(refs) > 50 {
				refs = refs[:50]
			}
			type pair struct{ p, q *ir.AP }
			var pairs []pair
			cold := make(map[pair]bool)
			for i := range refs {
				for j := i; j < len(refs); j++ {
					pr := pair{refs[i].AP, refs[j].AP}
					pairs = append(pairs, pr)
					cold[pr] = a1.MayAlias(pr.p, pr.q)
				}
			}
			for _, pr := range pairs {
				if a1.MayAlias(pr.p, pr.q) != cold[pr] {
					t.Fatalf("seed %d %v: warm answer differs for %s ~ %s",
						seed, lvl, pr.p, pr.q)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			for _, pr := range pairs {
				if a2.MayAlias(pr.q, pr.p) != cold[pr] {
					t.Fatalf("seed %d %v: shuffled/swapped query differs for %s ~ %s",
						seed, lvl, pr.p, pr.q)
				}
			}
		}
	}
}
