package artifact

import (
	"errors"
	"io/fs"
	"testing"

	"tbaa/internal/alias"
	"tbaa/internal/driver"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
	"tbaa/internal/randprog"
)

// buildAndWrite lowers src fresh, builds the analyses for opts, writes
// the artifact, and returns the pieces for comparison.
func buildAndWrite(t *testing.T, dir string, src string, opts alias.Options, key Key) (*ir.Program, *alias.Analysis) {
	t.Helper()
	prog, _, err := driver.Compile("m.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	a := alias.New(prog, opts)
	snap := a.Snapshot()
	if snap == nil {
		t.Fatal("analysis refused to snapshot")
	}
	var mrSnap *modref.Snapshot
	if opts.Level == alias.LevelIPTypeRefs {
		mr := modref.ComputeWith(prog, modref.Config{RTA: true, OpenWorld: opts.OpenWorld})
		if mrSnap = mr.Snapshot(); mrSnap == nil {
			t.Fatal("summaries refused to snapshot")
		}
	}
	if err := Write(dir, key, prog, a.Index(), snap, mrSnap); err != nil {
		t.Fatal(err)
	}
	return prog, a
}

// TestRoundTripBasic pins the low-level encode/decode invariants the
// package-level differential tests build on: the decoded program
// re-interns to the recorded table, the decoded snapshot passes the
// alias constructor's validation, and verdicts agree path by path.
func TestRoundTripBasic(t *testing.T) {
	for seed := int64(71000); seed < 71006; seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		for _, opts := range []alias.Options{
			{Level: alias.LevelTypeDecl},
			{Level: alias.LevelSMFieldTypeRefs, OpenWorld: true},
			{Level: alias.LevelIPTypeRefs},
		} {
			dir := t.TempDir()
			key := Key{ModuleHash: "h", Level: int(opts.Level), Open: opts.OpenWorld}
			prog, a := buildAndWrite(t, dir, src, opts, key)

			prog2, _, err := driver.Compile("m.m3", src)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := Load(dir, key, prog2.Universe)
			if err != nil {
				t.Fatalf("seed %d opts %+v: load: %v", seed, opts, err)
			}
			b, err := alias.NewFromSnapshot(snap.Prog, opts, snap.Index, snap.Alias)
			if err != nil {
				t.Fatalf("seed %d opts %+v: rebuild: %v", seed, opts, err)
			}
			refs := alias.References(prog)
			refs2 := alias.References(snap.Prog)
			if len(refs) != len(refs2) {
				t.Fatalf("seed %d: %d references decoded as %d", seed, len(refs), len(refs2))
			}
			n := len(refs)
			if n > 60 {
				n = 60
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if w, g := a.MayAlias(refs[i].AP, refs[j].AP), b.MayAlias(refs2[i].AP, refs2[j].AP); w != g {
						t.Fatalf("seed %d opts %+v: verdict (%s, %s): fresh %v, decoded %v",
							seed, opts, refs[i].AP, refs[j].AP, w, g)
					}
				}
			}
			if opts.Level == alias.LevelIPTypeRefs {
				if snap.ModRef == nil {
					t.Fatalf("seed %d: interprocedural artifact lost its mod-ref section", seed)
				}
				if _, err := modref.FromSnapshot(snap.Prog, modref.Config{RTA: true, OpenWorld: opts.OpenWorld}, snap.Index, snap.ModRef); err != nil {
					t.Fatalf("seed %d: mod-ref rebuild: %v", seed, err)
				}
			}
		}
	}
}

// TestLoadMissIsNotExist pins the miss/invalid split Load's callers
// dispatch on.
func TestLoadMissIsNotExist(t *testing.T) {
	prog, _, err := driver.Compile("m.m3", randprog.Generate(1, randprog.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(t.TempDir(), Key{ModuleHash: "absent"}, prog.Universe)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing artifact: %v, want fs.ErrNotExist", err)
	}
}
