package tbaa_test

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tbaa/internal/bench"
	"tbaa/internal/eval"
)

// render runs one table/figure generator and renders it to a string.
func render[T any](t *testing.T, gen func() ([]T, error), fprint func(io.Writer, []T)) string {
	t.Helper()
	rows, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fprint(&sb, rows)
	return sb.String()
}

// TestParallelMatchesSequential is the harness determinism contract:
// a Runner with many workers must emit byte-identical artifacts to the
// one-worker (historical sequential) path.
func TestParallelMatchesSequential(t *testing.T) {
	seq := eval.NewRunner(1)
	par := eval.NewRunner(8)
	check := func(name, a, b string) {
		if a != b {
			t.Errorf("%s: parallel output differs from sequential\n--- sequential ---\n%s--- parallel ---\n%s", name, a, b)
		}
	}
	check("Table5",
		render(t, seq.Table5, eval.FprintTable5),
		render(t, par.Table5, eval.FprintTable5))
	check("Table6",
		render(t, seq.Table6, eval.FprintTable6),
		render(t, par.Table6, eval.FprintTable6))
	check("TableFS",
		render(t, seq.TableFS, eval.FprintTableFS),
		render(t, par.TableFS, eval.FprintTableFS))
	check("TableIP",
		render(t, seq.TableIP, eval.FprintTableIP),
		render(t, par.TableIP, eval.FprintTableIP))
	if testing.Short() {
		return
	}
	check("Table4",
		render(t, seq.Table4, eval.FprintTable4),
		render(t, par.Table4, eval.FprintTable4))
	check("Figure9",
		render(t, seq.Figure9, eval.FprintFigure9),
		render(t, par.Figure9, eval.FprintFigure9))
	check("Figure12",
		render(t, seq.Figure12, eval.FprintFigure12),
		render(t, par.Figure12, eval.FprintFigure12))
}

// TestRunnerModuleCache pins the frontend-cache contract: the Runner
// hands every cell the same Module, and independent Analyzers built
// from it see identical program structure.
func TestRunnerModuleCache(t *testing.T) {
	r := eval.NewRunner(1)
	b, ok := bench.ByName("k-tree")
	if !ok {
		t.Fatal("k-tree benchmark missing")
	}
	m1, err := r.Module(b)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.Module(b)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("Runner.Module recompiled a cached benchmark")
	}
	a1, err := m1.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m1.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("Module.NewAnalyzer returned a shared Analyzer")
	}
	if a1.IR() != a2.IR() {
		t.Error("re-lowered program differs from the first lowering")
	}
}

// TestTable4Golden compares the rendered Table 4 against the checked-in
// golden file used by the CI benchmark-smoke step.
func TestTable4Golden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("internal", "bench", "testdata", "table4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// The golden file holds exactly `tbaabench -table 4` output: the
	// rendered table followed by one blank separator line.
	got := render(t, eval.NewRunner(0).Table4,
		eval.FprintTable4) + "\n"
	if got != string(want) {
		t.Errorf("Table 4 drifted from testdata/table4.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestTableFSGolden compares the rendered Table FS against the
// checked-in golden (exactly `tbaabench -table fs` output) with a full
// worker pool, pinning both the refinement's per-benchmark numbers and
// the byte-stability of the new table under parallel evaluation.
func TestTableFSGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "tablefs.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := render(t, eval.NewRunner(0).TableFS,
		eval.FprintTableFS) + "\n"
	if got != string(want) {
		t.Errorf("Table FS drifted from testdata/tablefs.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestTableIPGolden compares the rendered Table IP against the
// checked-in golden (exactly `tbaabench -table ip` output) with a full
// worker pool, pinning both the interprocedural layer's per-benchmark
// numbers and the byte-stability of the new table under parallel
// evaluation.
func TestTableIPGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "tableip.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := render(t, eval.NewRunner(0).TableIP,
		eval.FprintTableIP) + "\n"
	if got != string(want) {
		t.Errorf("Table IP drifted from testdata/tableip.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
