package cow

import (
	"maps"
	"math/rand"
	"testing"
)

// contents materializes a generation through All, checking Get and Len
// agree with it.
func contents(t *testing.T, m *Map[int, int]) map[int]int {
	t.Helper()
	out := make(map[int]int)
	for k, v := range m.All {
		if _, dup := out[k]; dup {
			t.Fatalf("All yields key %d twice", k)
		}
		out[k] = v
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d, %v; All yields %d", k, got, ok, v)
		}
	}
	if m.Len() != len(out) {
		t.Fatalf("Len = %d, All yields %d keys", m.Len(), len(out))
	}
	return out
}

// TestGenerationsMatchReference drives random sets and deletes through
// a chain of generations, long enough to fold several times, and checks
// every generation against a plain map — both when it is current and
// after later generations were derived from it.
func TestGenerationsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seed := make(map[int]int)
	for k := 0; k < 200; k++ {
		seed[k] = k
	}
	m := FromMap(maps.Clone(seed))
	ref := seed
	type gen struct {
		m   *Map[int, int]
		ref map[int]int
	}
	var gens []gen
	for g := 0; g < 60; g++ {
		m = m.Derive()
		ref = maps.Clone(ref)
		for op := 0; op < 7; op++ {
			k := rng.Intn(400)
			if rng.Intn(3) == 0 {
				m.Delete(k)
				delete(ref, k)
			} else {
				m.Set(k, g*1000+op)
				ref[k] = g*1000 + op
			}
			if _, ok := m.Get(k); ok != hasKey(ref, k) {
				t.Fatalf("gen %d: Get(%d) presence wrong after write", g, k)
			}
		}
		gens = append(gens, gen{m, ref})
	}
	for i, g := range gens {
		if got := contents(t, g.m); !maps.Equal(got, g.ref) {
			t.Fatalf("generation %d drifted after later derives", i)
		}
	}
}

func hasKey(m map[int]int, k int) bool {
	_, ok := m[k]
	return ok
}

// TestDeriveFolds checks that a delta past an eighth of the base is
// folded, so lookups stay two-level and the copy is amortized.
func TestDeriveFolds(t *testing.T) {
	m := FromMap(make(map[int]int))
	for k := 0; k < 80; k++ {
		m.Set(k, k)
	}
	m = m.Derive()
	for k := 100; k < 120; k++ {
		m.Set(k, k)
	}
	m.Delete(3)
	if len(m.delta) != 21 {
		t.Fatalf("delta holds %d entries, want 21", len(m.delta))
	}
	next := m.Derive()
	if next.delta != nil || len(next.base) != 99 || next.Len() != 99 {
		t.Fatalf("want a fold into a 99-key owned base, got delta %d base %d len %d",
			len(next.delta), len(next.base), next.Len())
	}
	if _, ok := next.Get(3); ok {
		t.Fatal("fold resurrected a deleted key")
	}
	next.Set(200, 1)
	if _, ok := m.Get(200); ok {
		t.Fatal("write to a folded generation leaked into its parent")
	}
}
