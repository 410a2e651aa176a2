package tbaa_test

import (
	"strings"
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

// TestCompileBoundsNesting: two megabytes of nested parentheses, deep
// enough to exhaust the goroutine stack in the checker or the lowerer,
// are a positioned *ParseError, while an expression just inside the
// parser's nesting cap compiles.
func TestCompileBoundsNesting(t *testing.T) {
	src := func(k int) string {
		return "MODULE M; VAR x: INTEGER; BEGIN x := " + strings.Repeat("(", k) + "1" +
			strings.Repeat(")", k) + "; PutInt(x); END M."
	}
	if _, err := tbaa.Compile("deep.m3", src(998)); err != nil {
		t.Fatalf("998 nested parentheses: %v", err)
	}
	_, err := tbaa.Compile("deep.m3", src(1_000_000))
	pe, ok := err.(*tbaa.ParseError)
	if !ok {
		t.Fatalf("10^6 nested parentheses: got %T %v, want *ParseError", err, err)
	}
	checkPositioned(t, err, pe.File, pe.Line, pe.Col, pe.Diagnostics)
}
