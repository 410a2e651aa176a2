package tbaa_test

import (
	"fmt"
	"strings"
	"testing"

	"tbaa"
)

// The edit-path tests pin the public incremental contract: an applied
// edit answers exactly like a from-scratch Analyzer of the edited
// source, and ill-formed edits are rejected with check errors while the
// analyzer keeps answering on its current program.

const editBase = `
MODULE EditT;
TYPE
  T = OBJECT f, g: INTEGER; END;
  S = OBJECT h: INTEGER; END;
VAR t: T; s: S; x: INTEGER;
PROCEDURE Touch() =
BEGIN
  x := t.f;
END Touch;
PROCEDURE Other() =
BEGIN
  s.h := 2;
END Other;
BEGIN
  Touch();
  Other();
END EditT.
`

// editedTouch rewrites Touch to reference t.g instead of t.f.
const editedTouch = `PROCEDURE Touch() =
BEGIN
  x := t.g;
END Touch;`

func editedModuleSource() string {
	return strings.Replace(editBase, "x := t.f;", "x := t.g;", 1)
}

func TestEditProcMatchesScratch(t *testing.T) {
	for _, level := range []tbaa.Level{tbaa.TypeDecl, tbaa.SMFieldTypeRefs, tbaa.FSTypeRefs, tbaa.IPTypeRefs} {
		a, err := tbaa.New("edit.m3", editBase, tbaa.WithLevel(level))
		if err != nil {
			t.Fatal(err)
		}
		// Warm the snapshot so the edit exercises the swap path.
		if _, err := a.MayAlias("t.f", "t.f"); err != nil {
			t.Fatal(err)
		}
		e, err := a.EditProc(editedTouch)
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if e.Proc() != "Touch" {
			t.Fatalf("edit names %q", e.Proc())
		}
		scratch, err := tbaa.New("edit.m3", editedModuleSource(), tbaa.WithLevel(level))
		if err != nil {
			t.Fatal(err)
		}
		paths := a.Paths()
		want := scratch.Paths()
		if len(paths) != len(want) {
			t.Fatalf("%v: paths %v, scratch %v", level, paths, want)
		}
		for _, p := range paths {
			for _, q := range paths {
				got, err := a.MayAlias(p, q)
				if err != nil {
					t.Fatal(err)
				}
				exp, err := scratch.MayAlias(p, q)
				if err != nil {
					t.Fatal(err)
				}
				if got != exp {
					t.Fatalf("%v: MayAlias(%s,%s) edited=%v scratch=%v", level, p, q, got, exp)
				}
			}
		}
		if got, want := a.CountPairs(), scratch.CountPairs(); got != want {
			t.Fatalf("%v: CountPairs edited=%+v scratch=%+v", level, got, want)
		}
	}
}

func TestEditProcSharedModule(t *testing.T) {
	mod, err := tbaa.Compile("edit.m3", editBase)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := mod.NewAnalyzer(tbaa.WithLevel(tbaa.SMFieldTypeRefs))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := mod.NewAnalyzer(tbaa.WithLevel(tbaa.FSTypeRefs))
	if err != nil {
		t.Fatal(err)
	}
	e, err := mod.EditProc(editedTouch)
	if err != nil {
		t.Fatal(err)
	}
	// a1 has not applied the edit: it still sees the old body's paths
	// (t.g exists only in the edited body).
	if _, err := a1.MayAlias("t.f", "t.f"); err != nil {
		t.Fatalf("pre-apply analyzer lost its program: %v", err)
	}
	if _, err := a1.MayAlias("t.g", "t.g"); err == nil {
		t.Fatal("pre-apply analyzer already sees the edited body")
	}
	if err := a1.ApplyEdit(e); err != nil {
		t.Fatal(err)
	}
	if err := a2.ApplyEdit(e); err != nil {
		t.Fatal(err)
	}
	// An analyzer lowered after the edit agrees with the applied ones.
	a3, err := mod.NewAnalyzer(tbaa.WithLevel(tbaa.SMFieldTypeRefs))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*tbaa.Analyzer{a1, a2, a3} {
		got, err := a.MayAlias("t.g", "t.g")
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Fatal("edited body's reference missing")
		}
	}
}

func TestEditProcRejections(t *testing.T) {
	mod, err := tbaa.Compile("edit.m3", editBase)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, src, want string
	}{
		{"unknown proc", "PROCEDURE Nope() =\nBEGIN\nEND Nope;", "no procedure"},
		{"signature change", "PROCEDURE Touch(n: INTEGER) =\nBEGIN\nEND Touch;", "parameters"},
		{"composite type", "PROCEDURE Touch() =\nVAR a: REF INTEGER;\nBEGIN\nEND Touch;", "declared type names"},
		{"type error", "PROCEDURE Touch() =\nBEGIN\n  x := NoSuchVar;\nEND Touch;", "NoSuchVar"},
		{"not a proc", "VAR y: INTEGER;", "exactly one PROCEDURE"},
		{"syntax", "PROCEDURE Touch() = BEGIN x := ; END Touch;", ""},
	}
	for _, tc := range cases {
		_, err := mod.EditProc(tc.src)
		if err == nil {
			t.Fatalf("%s: edit accepted", tc.name)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Rejected edits leave the module answering as before.
	a, err := mod.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.MayAlias("t.f", "t.f"); err != nil {
		t.Fatal(err)
	}
}

// TestCountPairsDuringEdits runs CountPairs in a loop while 200 edits
// alternate Touch between its two bodies. Every count must be the count
// of one of the two programs; under -race the test also checks that
// the sweep never reads a procedure an edit is re-lowering.
func TestCountPairsDuringEdits(t *testing.T) {
	const originalTouch = `PROCEDURE Touch() =
BEGIN
  x := t.f;
END Touch;`
	for _, level := range []tbaa.Level{tbaa.SMFieldTypeRefs, tbaa.IPTypeRefs} {
		var want [2]tbaa.PairCounts
		for i, src := range []string{editBase, editedModuleSource()} {
			fresh, err := tbaa.New("edit.m3", src, tbaa.WithLevel(level))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = fresh.CountPairs()
		}
		a, err := tbaa.New("edit.m3", editBase, tbaa.WithLevel(level))
		if err != nil {
			t.Fatal(err)
		}
		stop, swept := make(chan struct{}), make(chan struct{}, 1)
		errc := make(chan error, 1)
		go func() {
			defer close(errc)
			for {
				if got := a.CountPairs(); got != want[0] && got != want[1] {
					errc <- fmt.Errorf("CountPairs %+v, want %+v or %+v", got, want[0], want[1])
					return
				}
				select {
				case swept <- struct{}{}:
				default:
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		// Start editing once the sweeps are under way.
		select {
		case <-swept:
		case err := <-errc:
			t.Fatalf("%v: %v", level, err)
		}
		for k := 0; k < 200; k++ {
			src := editedTouch
			if k%2 == 1 {
				src = originalTouch
			}
			e, err := a.Module().EditProc(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.ApplyEdit(e); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		if err := <-errc; err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if got := a.CountPairs(); got != want[0] {
			t.Fatalf("%v: CountPairs after an even number of edits %+v, want %+v", level, got, want[0])
		}
	}
}
