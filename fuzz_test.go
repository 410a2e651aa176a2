package tbaa_test

import (
	"testing"

	"tbaa"
)

// FuzzCompile feeds arbitrary text to Compile, seeded with the stock
// benchmark sources. Compile must never panic, and every rejection must
// be a *ParseError or *CheckError that locates its first diagnostic.
func FuzzCompile(f *testing.F) {
	for _, b := range tbaa.Benchmarks() {
		f.Add(b.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := tbaa.Compile("fuzz.m3", src)
		switch e := err.(type) {
		case nil:
		case *tbaa.ParseError:
			checkPositioned(t, err, e.File, e.Line, e.Col, e.Diagnostics)
		case *tbaa.CheckError:
			checkPositioned(t, err, e.File, e.Line, e.Col, e.Diagnostics)
		default:
			t.Fatalf("Compile returned %T, want *ParseError or *CheckError: %v", err, err)
		}
	})
}

func checkPositioned(t *testing.T, err error, file string, line, col int, diags []tbaa.Diagnostic) {
	t.Helper()
	if file == "" || line < 1 || col < 1 || len(diags) == 0 {
		t.Fatalf("%T without a position (file %q, %d:%d, %d diagnostics): %v", err, file, line, col, len(diags), err)
	}
}
