package eval

import (
	"strings"
	"testing"

	"tbaa"
	"tbaa/internal/bench"
	"tbaa/internal/randprog"
)

// The sweep's RebuildOneProc row edits a verbatim procedure extracted
// from the measured module's own source. These tests pin the two
// properties the row depends on: every module family the sweep
// measures yields an extractable, re-installable procedure, and a
// verbatim re-install changes no verdict (so the row times a pure
// delta, not cumulative drift).

func checkScaleEdit(t *testing.T, name, src string) {
	t.Helper()
	procSrc, err := scaleEditProc(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !strings.HasPrefix(procSrc, "PROCEDURE ") || !strings.HasSuffix(procSrc, ";") {
		t.Fatalf("%s: extracted text is not a procedure declaration:\n%s", name, procSrc)
	}
	a, err := tbaa.New(name+".m3", src)
	if err != nil {
		t.Fatal(err)
	}
	before := a.CountPairs()
	pe, err := a.EditProc(procSrc)
	if err != nil {
		t.Fatalf("%s: verbatim edit rejected: %v", name, err)
	}
	if after := a.CountPairs(); after != before {
		t.Fatalf("%s: verbatim re-install of %s changed pair counts: %+v -> %+v",
			name, pe.Proc(), before, after)
	}
}

func TestScaleEditProcGenerated(t *testing.T) {
	src := randprog.GenerateScale(scaleSeed, randprog.ScaleConfigForLines(2000))
	checkScaleEdit(t, "randprog-2000", src)
}

func TestScaleEditProcMegaBenchmark(t *testing.T) {
	mega, ok := bench.ByName(scaleMegaBenchmark)
	if !ok {
		t.Fatalf("no stock benchmark %q", scaleMegaBenchmark)
	}
	checkScaleEdit(t, mega.Name, mega.Source)
}
