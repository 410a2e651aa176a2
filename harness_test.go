package tbaa_test

import (
	"strings"
	"testing"

	"tbaa"
	"tbaa/internal/bench"
	"tbaa/internal/driver"
	"tbaa/internal/eval"
	"tbaa/internal/interp"
)

// These tests encode the paper's qualitative claims (the "shapes" of its
// tables and figures) as assertions over the artifacts internal/eval
// regenerates. They share one runner, so each benchmark compiles once.
var runner = eval.NewRunner(0)

func TestTable4Shape(t *testing.T) {
	rows, err := runner.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("Table 4 must list all 10 programs, got %d", len(rows))
	}
	interactive := 0
	for _, r := range rows {
		if r.Lines < 100 {
			t.Errorf("%s: suspiciously small (%d lines)", r.Name, r.Lines)
		}
		if r.Interactive {
			interactive++
			continue
		}
		// Paper band: heap loads 8-27%; ours 10-30%.
		if r.HeapLoadPct < 8 || r.HeapLoadPct > 35 {
			t.Errorf("%s: heap load pct %.1f out of the paper's band", r.Name, r.HeapLoadPct)
		}
	}
	if interactive != 2 {
		t.Errorf("expected 2 interactive programs, got %d", interactive)
	}
	var sb strings.Builder
	eval.FprintTable4(&sb, rows)
	if !strings.Contains(sb.String(), "dom") || !strings.Contains(sb.String(), "-") {
		t.Error("rendered table must include interactive rows with dashes")
	}
}

func TestTable5Shape(t *testing.T) {
	rows, err := runner.Table5()
	if err != nil {
		t.Fatal(err)
	}
	var smWinsGlobal bool
	for _, r := range rows {
		// Monotone precision: TypeDecl ≥ FieldTypeDecl ≥ SMFieldTypeRefs.
		if r.Local[1] > r.Local[0] || r.Local[2] > r.Local[1] {
			t.Errorf("%s: local pairs not monotone: %v", r.Name, r.Local)
		}
		if r.Global[1] > r.Global[0] || r.Global[2] > r.Global[1] {
			t.Errorf("%s: global pairs not monotone: %v", r.Name, r.Global)
		}
		// Paper: global (interprocedural) pairs greatly exceed local ones.
		if r.Global[0] < r.Local[0] {
			t.Errorf("%s: global pairs below local pairs", r.Name)
		}
		// Paper: TypeDecl performs "a lot worse" than FieldTypeDecl.
		if r.Local[0] > 0 && r.Local[1] == r.Local[0] {
			t.Errorf("%s: FieldTypeDecl should improve on TypeDecl", r.Name)
		}
		if r.Global[2] < r.Global[1] {
			smWinsGlobal = true
		}
	}
	// Paper: SMFieldTypeRefs improves global pairs only on m3cg (and
	// postcard); at least one program must show the effect.
	if !smWinsGlobal {
		t.Error("expected SMFieldTypeRefs to win global pairs somewhere (paper: m3cg)")
	}
}

func TestTable6Shape(t *testing.T) {
	rows, err := runner.Table6()
	if err != nil {
		t.Fatal(err)
	}
	var ftdWins, smAdds int
	var total int
	for _, r := range rows {
		if r.Removed[1] < r.Removed[0] {
			t.Errorf("%s: FieldTypeDecl removed fewer loads than TypeDecl", r.Name)
		}
		if r.Removed[1] > r.Removed[0] {
			ftdWins++
		}
		if r.Removed[2] != r.Removed[1] {
			smAdds++
		}
		total += r.Removed[2]
	}
	if ftdWins == 0 {
		t.Error("FieldTypeDecl should expose more RLE opportunities somewhere")
	}
	// Paper: "the reductions ... between FieldTypeDecl and SMFieldTypeRefs
	// does not change the number of redundant loads found by RLE."
	if smAdds != 0 {
		t.Errorf("SMFieldTypeRefs changed RLE counts on %d programs; paper says none", smAdds)
	}
	if total == 0 {
		t.Error("RLE should remove something")
	}
}

func TestTableFSShape(t *testing.T) {
	rows, err := runner.TableFS()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(tbaa.Benchmarks()) {
		t.Fatalf("TableFS rows = %d, want one per benchmark", len(rows))
	}
	totalDisambiguated := 0
	for _, r := range rows {
		// The refinement only removes pairs and only removes kills.
		if r.GlobalFS > r.GlobalSM || r.LocalFS > r.LocalSM {
			t.Errorf("%s: FSTypeRefs counted more pairs than SMFieldTypeRefs: %+v", r.Name, r)
		}
		if r.Disambiguated != r.GlobalSM-r.GlobalFS {
			t.Errorf("%s: Disambiguated = %d, want GlobalSM-GlobalFS = %d",
				r.Name, r.Disambiguated, r.GlobalSM-r.GlobalFS)
		}
		if r.RemovedFS < r.RemovedSM {
			t.Errorf("%s: FS-driven RLE removed %d < SM's %d", r.Name, r.RemovedFS, r.RemovedSM)
		}
		totalDisambiguated += r.Disambiguated
	}
	if totalDisambiguated == 0 {
		t.Error("the refinement should disambiguate pairs somewhere in the suite")
	}
}

func TestTableIPShape(t *testing.T) {
	rows, err := runner.TableIP()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(tbaa.Benchmarks()) {
		t.Fatalf("TableIP rows = %d, want one per benchmark", len(rows))
	}
	ipRLEWins := 0
	for _, r := range rows {
		// Each layer only removes pairs and only removes kills.
		if r.GlobalFS > r.GlobalSM || r.GlobalIP > r.GlobalFS {
			t.Errorf("%s: pair counts must be monotone SM >= FS >= IP: %+v", r.Name, r)
		}
		if r.Disambiguated != r.GlobalFS-r.GlobalIP {
			t.Errorf("%s: Disambiguated = %d, want GlobalFS-GlobalIP = %d",
				r.Name, r.Disambiguated, r.GlobalFS-r.GlobalIP)
		}
		if r.RemovedFS < r.RemovedSM || r.RemovedIP < r.RemovedFS {
			t.Errorf("%s: RLE removals must be monotone SM <= FS <= IP: %+v", r.Name, r)
		}
		if r.RemovedIP > r.RemovedFS {
			ipRLEWins++
		}
	}
	// The acceptance bar for the interprocedural layer: at least one
	// stock benchmark must see strictly more RLE removals than under
	// FSTypeRefs (k-tree and pp do, via invocation-fresh summaries of
	// their recursive constructors).
	if ipRLEWins == 0 {
		t.Error("the interprocedural layer should strictly improve RLE on some stock benchmark")
	}
}

func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := runner.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	var improvements int
	for _, r := range rows {
		for i, pct := range r.Pct {
			if pct > 100.5 {
				t.Errorf("%s level %d: optimization slowed the program (%.1f%%)", r.Name, i, pct)
			}
			// Paper band: 92-100% of base.
			if pct < 70 {
				t.Errorf("%s level %d: implausibly large speedup (%.1f%%)", r.Name, i, pct)
			}
		}
		if r.Pct[2] < 99.5 {
			improvements++
		}
		// More precise analysis can not be slower.
		if r.Pct[1] > r.Pct[0]+0.5 || r.Pct[2] > r.Pct[1]+0.5 {
			t.Errorf("%s: precision should not hurt: %v", r.Name, r.Pct)
		}
	}
	if improvements < 4 {
		t.Errorf("RLE should improve at least half the suite, improved %d", improvements)
	}
}

func TestFigure9And10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows9, err := runner.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows9 {
		if r.Optimized > r.Original+1e-9 {
			t.Errorf("%s: optimization increased dynamic redundancy (%.3f -> %.3f)",
				r.Name, r.Original, r.Optimized)
		}
		if r.Original < 0 || r.Original > 1 {
			t.Errorf("%s: fraction out of range: %f", r.Name, r.Original)
		}
	}
	rows10, err := runner.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	var encTotal, aliasFailTotal float64
	for _, r := range rows10 {
		encTotal += r.Fractions[0]
		aliasFailTotal += r.Fractions[3]
	}
	// Paper's central finding: alias failures are essentially absent
	// (< 2.5% of remaining loads; here as fraction of all heap loads).
	if aliasFailTotal/float64(len(rows10)) > 0.01 {
		t.Errorf("average AliasFailure fraction %.4f too high; paper reports ~0",
			aliasFailTotal/float64(len(rows10)))
	}
	if encTotal == 0 {
		t.Error("Encapsulation (dope vectors) should dominate the remaining redundancy")
	}
}

func TestFigure12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := runner.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper: "the open-world assumption has an insignificant impact".
		if r.Open-r.Closed > 2.0 {
			t.Errorf("%s: open world much slower than closed (%.1f vs %.1f)",
				r.Name, r.Open, r.Closed)
		}
		if r.Open < r.Closed-0.5 {
			t.Errorf("%s: open world cannot beat closed world", r.Name)
		}
	}
}

func TestSourceLines(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"", 0},
		{"a\nb\n", 2},
		{"a\n\n\nb", 2},
		{"(* comment *)\ncode\n", 1},
		{"code (* trailing *)\n", 1},
		{"(* multi\nline\ncomment *)\nx\n", 1},
		{"(* nested (* inner *) still *)\ny\n", 1},
	}
	for _, c := range cases {
		if got := bench.SourceLines(c.src); got != c.want {
			t.Errorf("SourceLines(%q) = %d want %d", c.src, got, c.want)
		}
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	// Two fresh runs of a benchmark give identical output — required for
	// all differential comparisons in the harness.
	b, _ := tbaa.BenchmarkByName("write-pickle")
	out1 := runBench(t, b)
	out2 := runBench(t, b)
	if out1 != out2 {
		t.Fatalf("non-deterministic benchmark output:\n%q\n%q", out1, out2)
	}
}

func runBench(t *testing.T, b tbaa.Benchmark) string {
	t.Helper()
	out, _, err := driverRun(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func driverRun(b tbaa.Benchmark) (string, int, error) {
	prog, _, err := driver.Compile(b.Name+".m3", b.Source)
	if err != nil {
		return "", 0, err
	}
	in := interp.New(prog)
	in.MaxSteps = 80_000_000
	out, err := in.Run()
	return out, int(in.Stats().Instructions), err
}
