package tbaa_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"tbaa"
)

// ipSrc allocates two sibling subtypes into supertype-declared globals
// and interposes a pure call between the allocations and the loop:
// FSTypeRefs loses its facts at the call (calls kill every global
// fact), IPTypeRefs consults Pure's empty summary and keeps them.
const ipSrc = `
MODULE IP;
TYPE
  T  = OBJECT i: INTEGER; END;
  S1 = T OBJECT a: INTEGER; END;
  S2 = T OBJECT b: INTEGER; END;
VAR
  x, y: T;
  sum: INTEGER;
PROCEDURE Pure(n: INTEGER): INTEGER =
BEGIN
  RETURN n + 1;
END Pure;
BEGIN
  x := NEW(S1);
  y := NEW(S2);
  x.i := 7;
  sum := Pure(sum);
  FOR k := 1 TO 10 DO
    y.i := k;
    sum := sum + x.i;
  END;
  PutInt(sum); PutLn();
END IP.
`

// TestIPTypeRefsLevel pins the public surface of the interprocedural
// level: the name, parsing, and WithLevel.
func TestIPTypeRefsLevel(t *testing.T) {
	if got := tbaa.IPTypeRefs.String(); got != "IPTypeRefs" {
		t.Errorf("IPTypeRefs.String() = %q", got)
	}
	for _, s := range []string{"iptyperefs", "IPTypeRefs", "ip"} {
		lvl, err := tbaa.ParseLevel(s)
		if err != nil || lvl != tbaa.IPTypeRefs {
			t.Errorf("ParseLevel(%q) = %v, %v; want IPTypeRefs", s, lvl, err)
		}
	}
	a, err := tbaa.New("ip.m3", ipSrc, tbaa.WithLevel(tbaa.IPTypeRefs))
	if err != nil {
		t.Fatal(err)
	}
	if a.Level() != tbaa.IPTypeRefs || a.Name() != "IPTypeRefs" {
		t.Errorf("Level() = %v, Name() = %q", a.Level(), a.Name())
	}
}

// TestIPFactSurvivesPureCallee is the regression test for the
// FSTypeRefs call rule: a reaching-allocation fact must survive a call
// to a callee that modifies nothing, so the interprocedural level
// disambiguates pairs the flow-sensitive level loses at the call and
// RLE hoists the loop load FSTypeRefs pins.
func TestIPFactSurvivesPureCallee(t *testing.T) {
	pairs := func(lvl tbaa.Level) tbaa.PairCounts {
		t.Helper()
		a, err := tbaa.New("ip.m3", ipSrc, tbaa.WithLevel(lvl))
		if err != nil {
			t.Fatal(err)
		}
		return a.CountPairs()
	}
	fsPC, ipPC := pairs(tbaa.FSTypeRefs), pairs(tbaa.IPTypeRefs)
	if ipPC.Global >= fsPC.Global {
		t.Errorf("IP global pairs = %d, want < FS's %d (x's fact dies at the pure call under FS)",
			ipPC.Global, fsPC.Global)
	}
	if ipPC.References != fsPC.References {
		t.Errorf("reference counts diverged: IP %d, FS %d", ipPC.References, fsPC.References)
	}

	removed := func(lvl tbaa.Level) int {
		t.Helper()
		a, err := tbaa.New("ip.m3", ipSrc, tbaa.WithLevel(lvl), tbaa.WithPasses(tbaa.RLE()))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		if out != "71\n" {
			t.Fatalf("level %v: optimized output %q, want \"71\\n\"", lvl, out)
		}
		return a.PassResults()[0].Removed()
	}
	fsRemoved, ipRemoved := removed(tbaa.FSTypeRefs), removed(tbaa.IPTypeRefs)
	if ipRemoved <= fsRemoved {
		t.Errorf("IP-driven RLE removed %d loads, want more than FS's %d (x.i should hoist)",
			ipRemoved, fsRemoved)
	}
}

// TestIPBatchCancellation covers MayAliasBatch context cancellation on
// the interprocedural oracle: a canceled context must surface on every
// unanswered pair without corrupting later queries.
func TestIPBatchCancellation(t *testing.T) {
	a, err := tbaa.New("ip.m3", ipSrc, tbaa.WithLevel(tbaa.IPTypeRefs))
	if err != nil {
		t.Fatal(err)
	}
	pairs := []tbaa.Pair{{P: "x.i", Q: "y.i"}, {P: "x.i", Q: "x.i"}}
	want := a.MayAliasBatch(context.Background(), pairs)
	for _, v := range want {
		if v.Err != nil {
			t.Fatalf("uncanceled batch verdict errored: %v", v.Err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, v := range a.MayAliasBatch(ctx, pairs) {
		if !errors.Is(v.Err, context.Canceled) {
			t.Errorf("canceled batch verdict %d = %+v, want context.Canceled", i, v)
		}
	}
	// The canceled batch must not have poisoned the analyzer.
	for i, v := range a.MayAliasBatch(context.Background(), pairs) {
		if v.Err != nil || v.MayAlias != want[i].MayAlias {
			t.Errorf("post-cancel verdict %d = %+v, want %+v", i, v, want[i])
		}
	}
	// Queries honors cancellation lazily: one error verdict, then stop.
	n := 0
	for v := range a.Queries(ctx, pairs) {
		n++
		if !errors.Is(v.Err, context.Canceled) {
			t.Errorf("canceled Queries verdict = %+v", v)
		}
	}
	if n != 1 {
		t.Errorf("canceled Queries yielded %d verdicts, want 1", n)
	}
}

// TestConcurrentIPAnalyzer drives one IPTypeRefs Analyzer from 8
// goroutines mixing the site-refined pair counter with the query
// surface — the flow facts and interprocedural summaries build lazily
// under the analyzer's lock, so this is the race test for the new
// level (run under -race in CI).
func TestConcurrentIPAnalyzer(t *testing.T) {
	a, err := tbaa.New("ip.m3", ipSrc, tbaa.WithLevel(tbaa.IPTypeRefs))
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
				if _, err := a.AddressTaken("x.i"); err != nil {
					t.Errorf("AddressTaken: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
