package tbaa_test

import (
	"context"
	"sync"
	"testing"

	"tbaa"
)

// fsSrc allocates two sibling subtypes into supertype-declared
// variables and has a loop where a store through one of them would —
// flow-insensitively — kill the other's loads.
const fsSrc = `
MODULE FS;
TYPE
  T  = OBJECT i: INTEGER; END;
  S1 = T OBJECT a: INTEGER; END;
  S2 = T OBJECT b: INTEGER; END;
VAR
  x, y: T;
  sum: INTEGER;
BEGIN
  x := NEW(S1);
  y := NEW(S2);
  x.i := 7;
  FOR k := 1 TO 10 DO
    y.i := k;
    sum := sum + x.i;
  END;
  PutInt(sum); PutLn();
END FS.
`

// TestFSTypeRefsLevel pins the public surface of the new level: the
// name, parsing, and WithLevel.
func TestFSTypeRefsLevel(t *testing.T) {
	if got := tbaa.FSTypeRefs.String(); got != "FSTypeRefs" {
		t.Errorf("FSTypeRefs.String() = %q", got)
	}
	for _, s := range []string{"fstyperefs", "FSTypeRefs", "fs"} {
		lvl, err := tbaa.ParseLevel(s)
		if err != nil || lvl != tbaa.FSTypeRefs {
			t.Errorf("ParseLevel(%q) = %v, %v; want FSTypeRefs", s, lvl, err)
		}
	}
	a, err := tbaa.New("fs.m3", fsSrc, tbaa.WithLevel(tbaa.FSTypeRefs))
	if err != nil {
		t.Fatal(err)
	}
	if a.Level() != tbaa.FSTypeRefs || a.Name() != "FSTypeRefs" {
		t.Errorf("Level() = %v, Name() = %q", a.Level(), a.Name())
	}
}

// TestFSTypeRefsRefinesPairsAndRLE: on fsSrc the refinement must count
// strictly fewer may-alias pairs than SMFieldTypeRefs and let RLE treat
// x.i as loop-invariant despite the y.i store.
func TestFSTypeRefsRefinesPairsAndRLE(t *testing.T) {
	sm, err := tbaa.New("fs.m3", fsSrc, tbaa.WithLevel(tbaa.SMFieldTypeRefs))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := tbaa.New("fs.m3", fsSrc, tbaa.WithLevel(tbaa.FSTypeRefs))
	if err != nil {
		t.Fatal(err)
	}
	smPC, fsPC := sm.CountPairs(), fs.CountPairs()
	if fsPC.Global >= smPC.Global {
		t.Errorf("FS global pairs = %d, want < SM's %d", fsPC.Global, smPC.Global)
	}
	if fsPC.References != smPC.References {
		t.Errorf("reference counts diverged: FS %d, SM %d", fsPC.References, smPC.References)
	}

	removed := func(lvl tbaa.Level) int {
		t.Helper()
		a, err := tbaa.New("fs.m3", fsSrc, tbaa.WithLevel(lvl), tbaa.WithPasses(tbaa.RLE()))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		if out != "70\n" {
			t.Fatalf("level %v: optimized output %q, want \"70\\n\"", lvl, out)
		}
		return a.PassResults()[0].Removed()
	}
	smRemoved, fsRemoved := removed(tbaa.SMFieldTypeRefs), removed(tbaa.FSTypeRefs)
	if fsRemoved <= smRemoved {
		t.Errorf("FS-driven RLE removed %d loads, want more than SM's %d (x.i should hoist)", fsRemoved, smRemoved)
	}
}

// TestConcurrentFSAnalyzer drives one FSTypeRefs Analyzer from 8
// goroutines mixing the site-refined pair counter with the query
// surface — the flow facts build lazily under the analyzer's lock, so
// this is the race test for the new level (run under -race in CI).
func TestConcurrentFSAnalyzer(t *testing.T) {
	a, err := tbaa.New("fs.m3", fsSrc, tbaa.WithLevel(tbaa.FSTypeRefs))
	if err != nil {
		t.Fatal(err)
	}
	wantPC := a.CountPairs()
	pairs := []tbaa.Pair{{P: "x.i", Q: "y.i"}, {P: "x.i", Q: "x.i"}}
	want := a.MayAliasBatch(context.Background(), pairs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if pc := a.CountPairs(); pc != wantPC {
					t.Errorf("concurrent CountPairs drifted: %+v != %+v", pc, wantPC)
					return
				}
				got := a.MayAliasBatch(context.Background(), pairs)
				for j := range got {
					if got[j].Err != nil || got[j].MayAlias != want[j].MayAlias {
						t.Errorf("concurrent verdict %v drifted from %v", got[j], want[j])
						return
					}
				}
				for v := range a.Queries(context.Background(), pairs) {
					if v.Err != nil {
						t.Errorf("Queries verdict error: %v", v.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDevirtPassPublic: the standalone resolution pass is part of the
// sealed pipeline surface and reports its counter separately from the
// fused MinvInline.
func TestDevirtPassPublic(t *testing.T) {
	src := `
MODULE D;
TYPE T = OBJECT f: INTEGER; METHODS get(): INTEGER := TGet; END;
VAR t: T; r: INTEGER;
PROCEDURE TGet(self: T): INTEGER =
BEGIN
  RETURN self.f;
END TGet;
BEGIN
  t := NEW(T);
  t.f := 5;
  r := t.get();
  PutInt(r); PutLn();
END D.
`
	a, err := tbaa.New("d.m3", src, tbaa.WithPasses(tbaa.Devirt()))
	if err != nil {
		t.Fatal(err)
	}
	res := a.PassResults()
	if len(res) != 1 || res[0].Pass != "devirt" {
		t.Fatalf("PassResults = %+v, want one devirt result", res)
	}
	if res[0].Devirtualized == 0 {
		t.Error("the monomorphic t.get() call should devirtualize")
	}
	if res[0].Inlined != 0 {
		t.Errorf("Devirt must not inline (got %d)", res[0].Inlined)
	}
	if out, _, err := a.Run(); err != nil || out != "5\n" {
		t.Errorf("devirtualized program ran (%q, %v), want \"5\\n\"", out, err)
	}
}

// TestQueriesReentrant is the regression test for the iterator's
// locking discipline: a consumer that calls MayAlias, AddressTaken, or
// a nested Queries from inside the loop must not self-deadlock, and the
// interleaved answers must match the batch verdicts.
func TestQueriesReentrant(t *testing.T) {
	a := mustAnalyzer(t)
	pairs := []tbaa.Pair{
		{P: "t.f", Q: "s.f"},
		{P: "t.f", Q: "u.f"},
		{P: "t.f", Q: "t.g"},
	}
	want := a.MayAliasBatch(context.Background(), pairs)
	i := 0
	for v := range a.Queries(context.Background(), pairs) {
		if v.Err != nil || v.MayAlias != want[i].MayAlias {
			t.Fatalf("verdict %d = %+v, want %+v", i, v, want[i])
		}
		// Re-enter the analyzer while the iteration is live.
		if ok, err := a.MayAlias(v.Pair.P, v.Pair.Q); err != nil || ok != v.MayAlias {
			t.Fatalf("MayAlias inside Queries loop = %v, %v; want %v", ok, err, v.MayAlias)
		}
		if _, err := a.AddressTaken(v.Pair.P); err != nil {
			t.Fatalf("AddressTaken inside Queries loop: %v", err)
		}
		for nested := range a.Queries(context.Background(), pairs[:1]) {
			if nested.Err != nil {
				t.Fatalf("nested Queries: %v", nested.Err)
			}
		}
		i++
	}
	if i != len(pairs) {
		t.Fatalf("iterated %d verdicts, want %d", i, len(pairs))
	}
	// Unknown paths still surface per-pair errors lazily.
	bad := []tbaa.Pair{{P: "t.f", Q: "nosuch.path"}, {P: "t.f", Q: "s.f"}}
	var errs, oks int
	for v := range a.Queries(context.Background(), bad) {
		if v.Err != nil {
			errs++
		} else {
			oks++
		}
	}
	if errs != 1 || oks != 1 {
		t.Errorf("bad-path iteration: %d errors, %d verdicts; want 1 and 1", errs, oks)
	}
}
