package alias_test

import (
	"slices"
	"testing"

	"tbaa/internal/alias"
	"tbaa/internal/driver"
	"tbaa/internal/interp"
	"tbaa/internal/ir"
	"tbaa/internal/randprog"
)

// TestPrecisionLatticeOnRandomPrograms sweeps generated programs and
// checks, over every pair of heap references, the paper's precision
// containment (SMFieldTypeRefs ⊆ FieldTypeDecl ⊆ TypeDecl), symmetry,
// reflexivity, open-world ⊇ closed-world, and per-type-groups ⊆
// union-find.
func TestPrecisionLatticeOnRandomPrograms(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(9000); seed < int64(9000+seeds); seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, _, err := driver.Compile("r.m3", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		td := alias.New(prog, alias.Options{Level: alias.LevelTypeDecl})
		ftd := alias.New(prog, alias.Options{Level: alias.LevelFieldTypeDecl})
		sm := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs})
		smOpen := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs, OpenWorld: true})
		smPT := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs, PerTypeGroups: true})
		refs := alias.References(prog)
		if len(refs) > 60 {
			refs = refs[:60] // bound the quadratic sweep
		}
		for i := range refs {
			p := refs[i].AP
			if !td.MayAlias(p, p) || !ftd.MayAlias(p, p) || !sm.MayAlias(p, p) {
				t.Fatalf("seed %d: reflexivity broken on %s", seed, p)
			}
			for j := i + 1; j < len(refs); j++ {
				q := refs[j].AP
				a1, a2, a3 := td.MayAlias(p, q), ftd.MayAlias(p, q), sm.MayAlias(p, q)
				if a3 && !a2 || a2 && !a1 {
					t.Fatalf("seed %d: precision lattice violated on %s ~ %s (%v %v %v)",
						seed, p, q, a1, a2, a3)
				}
				if td.MayAlias(q, p) != a1 || ftd.MayAlias(q, p) != a2 || sm.MayAlias(q, p) != a3 {
					t.Fatalf("seed %d: asymmetry on %s ~ %s", seed, p, q)
				}
				if a3 && !smOpen.MayAlias(p, q) {
					t.Fatalf("seed %d: open world dropped %s ~ %s", seed, p, q)
				}
				if smPT.MayAlias(p, q) && !a3 {
					t.Fatalf("seed %d: per-type groups less precise than union-find on %s ~ %s",
						seed, p, q)
				}
			}
		}
	}
}

// TestDynamicSoundnessOfMayAlias is the deepest property: if two heap
// accesses ever touch the same address at run time, the analysis must
// say they may alias. We instrument an execution, record which
// instruction pairs dynamically collided, and check every collision
// against all three analyses.
func TestDynamicSoundnessOfMayAlias(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(11000); seed < int64(11000+seeds); seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, _, err := driver.Compile("r.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		collisions := collectCollisions(t, prog)
		td := alias.New(prog, alias.Options{Level: alias.LevelTypeDecl})
		ftd := alias.New(prog, alias.Options{Level: alias.LevelFieldTypeDecl})
		sm := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs})
		for _, c := range collisions {
			if !td.MayAlias(c[0], c[1]) || !ftd.MayAlias(c[0], c[1]) || !sm.MayAlias(c[0], c[1]) {
				t.Fatalf("seed %d: unsound! %s and %s touched the same address but an analysis says no-alias\n%s",
					seed, c[0], c[1], src)
			}
		}
	}
}

// collectCollisions executes the program and returns every pair of
// distinct instructions' access paths that dynamically touched the same
// heap address, each pair once. Every instruction that ever touched an
// address is kept, so accessors A, B, C of one address yield (A,B),
// (A,C) and (B,C). The heap allocator never reuses addresses, so
// address equality means location identity. A run that traps keeps
// what it collected before the trap.
func collectCollisions(t *testing.T, prog *ir.Program) [][2]*ir.AP {
	t.Helper()
	in := interp.New(prog)
	in.MaxSteps = 2_000_000
	type key struct{ a, b *ir.Instr }
	seenPair := map[key]bool{}
	touched := map[uint64][]*ir.Instr{}
	var out [][2]*ir.AP
	in.SetListener(interp.Listener{Mem: func(ev *interp.MemEvent) {
		if !ev.Heap || ev.Instr.AP == nil {
			return
		}
		prevs := touched[ev.Addr]
		if slices.Contains(prevs, ev.Instr) {
			return
		}
		for _, prev := range prevs {
			if k := (key{prev, ev.Instr}); !seenPair[k] && !seenPair[key{ev.Instr, prev}] {
				seenPair[k] = true
				out = append(out, [2]*ir.AP{prev.AP, ev.Instr.AP})
			}
		}
		touched[ev.Addr] = append(prevs, ev.Instr)
	}})
	_, _ = in.Run() // a trapping run still yields what it collected
	return out
}
