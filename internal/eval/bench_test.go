// One testing.B benchmark per table and figure of the paper's
// evaluation section. Each benchmark regenerates its artifact and
// reports headline numbers as custom metrics, so
// `go test -bench=. ./internal/eval` reproduces the entire evaluation.
package eval

import "testing"

// BenchmarkTable4 regenerates the benchmark descriptions (sizes,
// instruction counts, load mix).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sequentialRunner.Table4()
		if err != nil {
			b.Fatal(err)
		}
		var instr uint64
		for _, r := range rows {
			instr += r.Instructions
		}
		b.ReportMetric(float64(instr), "instructions")
	}
}

// BenchmarkTable5 regenerates the static alias-pair counts.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sequentialRunner.Table5()
		if err != nil {
			b.Fatal(err)
		}
		var td, sm int
		for _, r := range rows {
			td += r.Local[0]
			sm += r.Local[2]
		}
		b.ReportMetric(float64(td), "TypeDecl-local-pairs")
		b.ReportMetric(float64(sm), "SMFieldTypeRefs-local-pairs")
	}
}

// BenchmarkTable6 regenerates the static RLE removal counts.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sequentialRunner.Table6()
		if err != nil {
			b.Fatal(err)
		}
		var td, ftd int
		for _, r := range rows {
			td += r.Removed[0]
			ftd += r.Removed[1]
		}
		b.ReportMetric(float64(td), "TypeDecl-removed")
		b.ReportMetric(float64(ftd), "FieldTypeDecl-removed")
	}
}

// BenchmarkFigure8 regenerates the simulated run-time impact of RLE.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sequentialRunner.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.Pct[2]
		}
		b.ReportMetric(sum/float64(len(rows)), "avg-pct-of-base")
	}
}

// BenchmarkFigure9 regenerates the dynamic redundancy limit study.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sequentialRunner.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		var before, after float64
		for _, r := range rows {
			before += r.Original
			after += r.Optimized
		}
		b.ReportMetric(before/float64(len(rows)), "avg-redundant-before")
		b.ReportMetric(after/float64(len(rows)), "avg-redundant-after")
	}
}

// BenchmarkFigure10 regenerates the redundancy classification.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sequentialRunner.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		var enc, aliasFail float64
		for _, r := range rows {
			enc += r.Fractions[0]
			aliasFail += r.Fractions[3]
		}
		b.ReportMetric(enc/float64(len(rows)), "avg-encapsulated")
		b.ReportMetric(aliasFail/float64(len(rows)), "avg-alias-failure")
	}
}

// BenchmarkFigure11 regenerates the cumulative optimization impact.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sequentialRunner.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		var both float64
		for _, r := range rows {
			both += r.Both
		}
		b.ReportMetric(both/float64(len(rows)), "avg-pct-rle+minv")
	}
}

// BenchmarkFigure12 regenerates the open/closed world comparison.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sequentialRunner.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		var diff float64
		for _, r := range rows {
			diff += r.Open - r.Closed
		}
		b.ReportMetric(diff/float64(len(rows)), "avg-open-minus-closed-pct")
	}
}

// --- Parallel harness -----------------------------------------------------

// Both runners persist across benchmark iterations, so the frontend
// cache is warm after the first pass and the sequential-vs-parallel
// comparison stands on the same footing.
var (
	sequentialRunner = NewRunner(1)
	parallelRunner   = NewRunner(0)
)

// BenchmarkTable6Parallel regenerates Table 6 on a GOMAXPROCS worker
// pool with the shared compile cache — compare against BenchmarkTable6
// for the harness speedup.
func BenchmarkTable6Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := parallelRunner.Table6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8Parallel is the parallel counterpart of
// BenchmarkFigure8, the most simulation-heavy artifact.
func BenchmarkFigure8Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := parallelRunner.Figure8(); err != nil {
			b.Fatal(err)
		}
	}
}
