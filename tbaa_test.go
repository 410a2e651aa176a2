package tbaa_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"tbaa"
)

const quickSrc = `
MODULE Quick;
TYPE
  T = OBJECT f, g: T; END;
  S1 = T OBJECT a: INTEGER; END;
  S2 = T OBJECT b: INTEGER; END;
VAR
  t: T;
  s: S1;
  u: S2;
  sink: T;
BEGIN
  t := NEW(T);
  s := NEW(S1);
  u := NEW(S2);
  t := s;
  sink := t.f;
  sink := s.f;
  sink := u.f;
  sink := t.g;
END Quick.
`

func mustAnalyzer(t *testing.T, options ...tbaa.Option) *tbaa.Analyzer {
	t.Helper()
	a, err := tbaa.New("quick.m3", quickSrc, options...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestConcurrentAnalyzer drives one Analyzer from 8 goroutines mixing
// batch queries, single queries, iterators, and the read-only
// inspection surface. Run under -race in CI.
func TestConcurrentAnalyzer(t *testing.T) {
	a := mustAnalyzer(t)
	pairs := []tbaa.Pair{
		{P: "t.f", Q: "s.f"},
		{P: "t.f", Q: "u.f"},
		{P: "t.f", Q: "t.g"},
		{P: "s.f", Q: "u.f"},
	}
	want := a.MayAliasBatch(context.Background(), pairs)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got := a.MayAliasBatch(context.Background(), pairs)
				for j := range got {
					if got[j].Err != nil || got[j].MayAlias != want[j].MayAlias {
						t.Errorf("concurrent batch verdict %v drifted from %v", got[j], want[j])
						return
					}
				}
				if ok, err := a.MayAlias("t.f", "s.f"); err != nil || ok != want[0].MayAlias {
					t.Errorf("MayAlias(t.f, s.f) = %v, %v", ok, err)
					return
				}
				for v := range a.Queries(context.Background(), pairs) {
					if v.Err != nil {
						t.Errorf("Queries verdict error: %v", v.Err)
						return
					}
				}
				if len(a.Paths()) == 0 {
					t.Error("Paths returned nothing")
					return
				}
				a.TypeRefs()
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentAnalyzerConstruction: one Module must support parallel
// NewAnalyzer calls (the harness's fan-out pattern).
func TestConcurrentAnalyzerConstruction(t *testing.T) {
	mod, err := tbaa.Compile("quick.m3", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lvl := tbaa.Levels()[g%3]
			a, err := mod.NewAnalyzer(tbaa.WithLevel(lvl), tbaa.WithPasses(tbaa.RLE()))
			if err != nil {
				t.Errorf("NewAnalyzer(%v): %v", lvl, err)
				return
			}
			if _, _, err := a.Run(); err != nil {
				t.Errorf("Run(%v): %v", lvl, err)
			}
		}(g)
	}
	wg.Wait()
}

// TestWithLevelValidation: out-of-range levels are rejected at
// construction with a descriptive error, not silently misanalyzed.
func TestWithLevelValidation(t *testing.T) {
	_, err := tbaa.New("quick.m3", quickSrc, tbaa.WithLevel(tbaa.Level(42)))
	if err == nil {
		t.Fatal("WithLevel(42) did not fail construction")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("error %q does not describe the range violation", err)
	}
	for _, lvl := range tbaa.Levels() {
		if _, err := tbaa.New("quick.m3", quickSrc, tbaa.WithLevel(lvl)); err != nil {
			t.Errorf("WithLevel(%v) rejected a valid level: %v", lvl, err)
		}
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]tbaa.Level{
		"typedecl":        tbaa.TypeDecl,
		"FieldTypeDecl":   tbaa.FieldTypeDecl,
		"smfieldtyperefs": tbaa.SMFieldTypeRefs,
		"tbaa":            tbaa.SMFieldTypeRefs,
	}
	for s, want := range cases {
		got, err := tbaa.ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
		var l tbaa.Level
		if err := l.Set(s); err != nil || l != want {
			t.Errorf("Level.Set(%q) = %v, %v; want %v", s, l, err, want)
		}
	}
	if _, err := tbaa.ParseLevel("andersen"); err == nil {
		t.Error("ParseLevel accepted an unknown level name")
	}
}

// TestTypedErrors pins the ParseError/CheckError contract: typed, with
// file/line diagnostics, unwrapping to the frontend error lists.
func TestTypedErrors(t *testing.T) {
	_, err := tbaa.Compile("bad.m3", "MODULE Bad;\nBEGIN\n  x := ;\nEND Bad.\n")
	var pe *tbaa.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("syntax error produced %T (%v), want *tbaa.ParseError", err, err)
	}
	if pe.File != "bad.m3" || pe.Line == 0 || len(pe.Diagnostics) == 0 {
		t.Errorf("ParseError missing position info: %+v", pe)
	}

	_, err = tbaa.Compile("bad.m3", "MODULE Bad;\nVAR x: INTEGER;\nBEGIN\n  x := NoSuchVar;\nEND Bad.\n")
	var ce *tbaa.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("semantic error produced %T (%v), want *tbaa.CheckError", err, err)
	}
	if ce.File != "bad.m3" || ce.Line == 0 || len(ce.Diagnostics) == 0 {
		t.Errorf("CheckError missing position info: %+v", ce)
	}
}

// TestPathError: querying a path that does not occur in the program.
func TestPathError(t *testing.T) {
	a := mustAnalyzer(t)
	_, err := a.MayAlias("t.f", "nosuch.path")
	var pe *tbaa.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("unknown path produced %T (%v), want *tbaa.PathError", err, err)
	}
	if pe.Path != "nosuch.path" {
		t.Errorf("PathError.Path = %q", pe.Path)
	}
}

// TestBatchCancellation: a canceled context fails the remaining
// verdicts with the context error instead of blocking.
func TestBatchCancellation(t *testing.T) {
	a := mustAnalyzer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pairs := []tbaa.Pair{{P: "t.f", Q: "s.f"}, {P: "t.f", Q: "u.f"}}
	for _, v := range a.MayAliasBatch(ctx, pairs) {
		if !errors.Is(v.Err, context.Canceled) {
			t.Errorf("verdict %+v does not carry the cancellation error", v)
		}
	}
	n := 0
	for v := range a.Queries(ctx, pairs) {
		n++
		if !errors.Is(v.Err, context.Canceled) {
			t.Errorf("iterator verdict %+v does not carry the cancellation error", v)
		}
	}
	if n != 1 {
		t.Errorf("canceled iterator yielded %d verdicts, want 1", n)
	}
}

// TestPassPipeline: WithPasses runs in order and reports per-pass
// results; the optimized program still computes the same output.
func TestPassPipeline(t *testing.T) {
	base := mustAnalyzer(t)
	baseOut, baseStats, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	opt := mustAnalyzer(t, tbaa.WithPasses(tbaa.MinvInline(), tbaa.RLE(), tbaa.PRE()))
	results := opt.PassResults()
	if len(results) != 3 || results[0].Pass != "minv+inline" || results[1].Pass != "rle" || results[2].Pass != "pre" {
		t.Fatalf("unexpected pass results: %+v", results)
	}
	optOut, optStats, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if optOut != baseOut {
		t.Errorf("optimization changed program output: %q vs %q", optOut, baseOut)
	}
	if optStats.HeapLoads > baseStats.HeapLoads {
		t.Errorf("optimization added heap loads: %d > %d", optStats.HeapLoads, baseStats.HeapLoads)
	}
}
