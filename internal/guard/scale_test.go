package guard

import (
	"math"
	"strings"
	"testing"
)

// synthRows builds a sweep where ns/op = c * lines^alpha exactly, so
// the fit must recover alpha.
func synthRows(level, op string, c, alpha float64, sizes ...int) []ScaleRow {
	var rows []ScaleRow
	for _, n := range sizes {
		rows = append(rows, ScaleRow{
			Benchmark: "randprog-x",
			Lines:     n,
			Level:     level,
			Op:        op,
			NsPerOp:   c * math.Pow(float64(n), alpha),
		})
	}
	return rows
}

func TestGrowthExponentsRecoverPowerLaw(t *testing.T) {
	rows := synthRows("TypeDecl", "MayAliasHot", 40, 0.0, 10000, 32000, 100000)
	rows = append(rows, synthRows("TypeDecl", "Compile", 3.5, 1.3, 10000, 32000, 100000)...)
	rows = append(rows, synthRows("TypeDecl", "SummaryCHA", 0.01, 2.0, 10000, 100000)...)
	exps := GrowthExponents(rows)
	if len(exps) != 3 {
		t.Fatalf("got %d series, want 3", len(exps))
	}
	want := map[string]float64{"MayAliasHot": 0.0, "Compile": 1.3, "SummaryCHA": 2.0}
	for _, e := range exps {
		if w, ok := want[e.Op]; !ok || math.Abs(e.Alpha-w) > 1e-9 {
			t.Errorf("%s: alpha = %g, want %g", e.Op, e.Alpha, w)
		}
	}
}

func TestGrowthExponentsFilters(t *testing.T) {
	rows := []ScaleRow{
		// Named program: no growth curve, excluded.
		{Benchmark: "lower-vm", Lines: 749, Level: "L", Op: "Compile", NsPerOp: 100},
		{Benchmark: "lower-vm", Lines: 800, Level: "L", Op: "Compile", NsPerOp: 200},
		// Single size: no slope.
		{Benchmark: "randprog-10000", Lines: 10000, Level: "L", Op: "Compile", NsPerOp: 100},
	}
	if exps := GrowthExponents(rows); len(exps) != 0 {
		t.Fatalf("got %d series, want 0", len(exps))
	}
}

func TestParseScaleErrors(t *testing.T) {
	if _, err := ParseScale(strings.NewReader("{not json"), "b.json"); err == nil ||
		!strings.Contains(err.Error(), "b.json") || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("want labeled malformed error, got %v", err)
	}
	if _, err := ParseScale(strings.NewReader("[]"), "b.json"); err == nil ||
		!strings.Contains(err.Error(), "empty") {
		t.Fatalf("want empty-artifact error, got %v", err)
	}
}

func TestCompareScale(t *testing.T) {
	pol := ScalePolicy{
		Caps:   map[string]float64{"MayAliasHot": 0.35, "Compile": 1.45},
		Margin: 0.25,
	}
	base := synthRows("L", "MayAliasHot", 40, 0.10, 10000, 100000)
	base = append(base, synthRows("L", "Compile", 3, 1.60, 10000, 100000)...)

	// Current: hot query still flat, Compile within baseline+margin but
	// over the hard cap, plus an untracked op.
	cur := synthRows("L", "MayAliasHot", 42, 0.12, 10000, 100000)
	cur = append(cur, synthRows("L", "Compile", 3, 1.80, 10000, 100000)...)
	cur = append(cur, synthRows("L", "CountPairs", 1, 1.5, 10000, 100000)...)

	rep, err := CompareScale(cur, base, pol)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("want pass: baseline 1.60 + margin 0.25 = 1.85 limit covers 1.80")
	}
	status := make(map[string]string)
	limit := make(map[string]float64)
	for _, r := range rep.Rows {
		status[r.Op] = r.Status
		limit[r.Op] = r.Limit
	}
	if status["MayAliasHot"] != "ok" || status["Compile"] != "ok" {
		t.Errorf("statuses = %v", status)
	}
	if status["CountPairs"] != "info" {
		t.Errorf("untracked op status = %q, want info", status["CountPairs"])
	}
	if math.Abs(limit["Compile"]-1.85) > 1e-9 {
		t.Errorf("Compile limit = %g, want baseline+margin 1.85", limit["Compile"])
	}
	if math.Abs(limit["MayAliasHot"]-0.35) > 1e-9 {
		t.Errorf("MayAliasHot limit = %g, want cap 0.35", limit["MayAliasHot"])
	}

	// Regressed current: hot queries now grow linearly.
	bad := synthRows("L", "MayAliasHot", 40, 1.0, 10000, 100000)
	rep, err = CompareScale(bad, base, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatal("want failure for linear hot-query growth")
	}
	var buf strings.Builder
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "FAIL") {
		t.Errorf("report missing FAIL:\n%s", buf.String())
	}
}

func TestCompareScaleRatioGate(t *testing.T) {
	pol := DefaultScalePolicy()
	// Build cost 100*n^1.2; rebuild a flat-ish 0.4*n^0.5. At the largest
	// module (100k lines) the ratio is far under a fiftieth.
	base := synthRows("L", "AnalyzerBuild", 100, 1.2, 10000, 100000)
	base = append(base, synthRows("L", "RebuildOneProc", 0.4, 0.5, 10000, 100000)...)
	rep, err := CompareScale(base, nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed || len(rep.Ratios) != 1 {
		t.Fatalf("want one passing ratio row, got %+v", rep)
	}
	r := rep.Ratios[0]
	if r.Op != "RebuildOneProc" || r.Against != "AnalyzerBuild" || r.Lines != 100000 || r.Status != "ok" {
		t.Fatalf("ratio row = %+v", r)
	}
	wantRatio := (0.4 * math.Pow(100000, 0.5)) / (100 * math.Pow(100000, 1.2))
	if math.Abs(r.Ratio-wantRatio) > 1e-12 {
		t.Fatalf("ratio = %g, want %g", r.Ratio, wantRatio)
	}

	// A rebuild at a twentieth of the from-scratch build — inside the
	// old tenth — fails even though its growth exponent is fine.
	twentieth := 100 * math.Pow(100000, 1.2) / 20 / math.Pow(100000, 0.5)
	bad := synthRows("L", "AnalyzerBuild", 100, 1.2, 10000, 100000)
	bad = append(bad, synthRows("L", "RebuildOneProc", twentieth, 0.5, 10000, 100000)...)
	rep, err = CompareScale(bad, nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatal("want failure for a rebuild costing a twentieth of the build")
	}
	var buf strings.Builder
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "FAIL") || !strings.Contains(buf.String(), "RebuildOneProc") {
		t.Errorf("report missing ratio FAIL:\n%s", buf.String())
	}

	// Artifacts predating the op carry no ratio rows and stay gateable.
	old := synthRows("L", "AnalyzerBuild", 100, 1.2, 10000, 100000)
	rep, err = CompareScale(old, nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed || len(rep.Ratios) != 0 {
		t.Fatalf("want no ratio rows for an artifact without the op, got %+v", rep)
	}
}

// TestRebuildOneProcSublinear pins the edit path's growth cap: a
// rebuild that grows linearly with the module fails the default policy
// even while it stays a small fraction of the build.
func TestRebuildOneProcSublinear(t *testing.T) {
	pol := DefaultScalePolicy()
	if c := pol.Caps["RebuildOneProc"]; c >= 1 {
		t.Fatalf("RebuildOneProc cap %g is not sublinear", c)
	}
	rows := synthRows("L", "AnalyzerBuild", 100, 1.2, 10000, 100000)
	rows = append(rows, synthRows("L", "RebuildOneProc", 0.001, 1.0, 10000, 100000)...)
	rep, err := CompareScale(rows, nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatal("want failure for linear RebuildOneProc growth")
	}
	for _, r := range rep.Ratios {
		if r.Status != "ok" {
			t.Fatalf("ratio row failed, want only the exponent to: %+v", r)
		}
	}
}

func TestCompareScaleBootstrapAndErrors(t *testing.T) {
	pol := DefaultScalePolicy()
	cur := synthRows("L", "MayAliasHot", 40, 0.05, 10000, 100000)
	// nil baseline: hard caps only.
	rep, err := CompareScale(cur, nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed || len(rep.Rows) != 1 || !math.IsNaN(rep.Rows[0].BaselineAlpha) {
		t.Fatalf("bootstrap rep = %+v", rep)
	}

	// No gateable series at all.
	_, err = CompareScale([]ScaleRow{{Benchmark: "lower-vm", Lines: 1, Op: "X", NsPerOp: 1}}, nil, pol)
	if err == nil || !strings.Contains(err.Error(), "no gateable series") {
		t.Fatalf("want no-gateable-series error, got %v", err)
	}
}
