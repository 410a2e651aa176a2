// Ablation benchmarks over the stock suite. The per-table and
// per-figure benchmarks of the paper's evaluation live with the
// harness in internal/eval.
package tbaa_test

import (
	"testing"

	"tbaa"
	"tbaa/internal/alias"
	"tbaa/internal/bench"
	"tbaa/internal/driver"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
	"tbaa/internal/opt"
)

// --- Ablation benches (DESIGN.md Section 5) -------------------------------

// BenchmarkAblationAnalysisCost measures the cost of building each
// analysis level over the whole suite — the paper's "fast" claim
// (Section 2.5: a single linear pass plus unions).
func BenchmarkAblationAnalysisCost(b *testing.B) {
	progs := compileSuite(b)
	for _, lvl := range []alias.Level{
		alias.LevelTypeDecl, alias.LevelFieldTypeDecl, alias.LevelSMFieldTypeRefs,
	} {
		lvl := lvl
		b.Run(lvl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, prog := range progs {
					alias.New(prog, alias.Options{Level: lvl})
				}
			}
		})
	}
}

// BenchmarkAblationPerTypeGroups compares the union-find SMTypeRefs
// against the paper's footnote-2 per-type-groups variant.
func BenchmarkAblationPerTypeGroups(b *testing.B) {
	progs := compileSuite(b)
	for _, perType := range []bool{false, true} {
		name := "union-find"
		if perType {
			name = "per-type-groups"
		}
		perType := perType
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var pairs int
				for _, prog := range progs {
					a := alias.New(prog, alias.Options{
						Level: alias.LevelSMFieldTypeRefs, PerTypeGroups: perType,
					})
					pairs += alias.CountPairs(prog, a).Local
				}
				b.ReportMetric(float64(pairs), "local-pairs")
			}
		})
	}
}

// BenchmarkAblationKillPrecision measures RLE removals as the kill
// oracle weakens from the perfect upper bound down to assume-everything.
func BenchmarkAblationKillPrecision(b *testing.B) {
	cases := []string{"AssumeAll", "TypeDecl", "SMFieldTypeRefs", "AssumeNone"}
	for _, name := range cases {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total := 0
				for _, bm := range tbaa.Benchmarks() {
					prog, _, err := driver.Compile(bm.Name, bm.Source)
					if err != nil {
						b.Fatal(err)
					}
					var o alias.Oracle
					switch name {
					case "AssumeAll":
						o = alias.AssumeAll{}
					case "TypeDecl":
						o = alias.New(prog, alias.Options{Level: alias.LevelTypeDecl})
					case "SMFieldTypeRefs":
						o = alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs})
					case "AssumeNone":
						o = alias.AssumeNone{}
					}
					mr := modref.Compute(prog)
					total += opt.RLE(prog, o, mr).Removed()
				}
				b.ReportMetric(float64(total), "loads-removed")
			}
		})
	}
}

func compileSuite(b *testing.B) []*ir.Program {
	b.Helper()
	var out []*ir.Program
	for _, bm := range tbaa.Benchmarks() {
		prog, _, err := driver.Compile(bm.Name, bm.Source)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, prog)
	}
	return out
}

// BenchmarkAblationPRE measures the paper's future-work extension:
// partial redundancy elimination after RLE. Reports how many additional
// loads the insertion+elimination pass removes across the suite.
func BenchmarkAblationPRE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		extra := 0
		inserted := 0
		for _, bm := range bench.Measured() {
			prog, _, err := driver.Compile(bm.Name, bm.Source)
			if err != nil {
				b.Fatal(err)
			}
			o := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs})
			mr := modref.Compute(prog)
			opt.RLE(prog, o, mr)
			res := opt.PRE(prog, o, mr)
			extra += res.Eliminated
			inserted += res.Inserted
		}
		b.ReportMetric(float64(extra), "extra-loads-removed")
		b.ReportMetric(float64(inserted), "compensation-loads")
	}
}
