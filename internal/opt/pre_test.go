package opt_test

import (
	"testing"

	"tbaa/internal/alias"
	"tbaa/internal/driver"
	"tbaa/internal/interp"
	"tbaa/internal/limit"
	"tbaa/internal/modref"
	"tbaa/internal/opt"
	"tbaa/internal/randprog"
)

// The canonical partial-redundancy shape: t.f is available after the
// THEN branch but killed by the call on the ELSE branch, so the load
// after the join is redundant only on some paths — RLE (intersection
// meet, no insertions) must keep it, PRE can remove it.
const partialSrc = `
MODULE M;
TYPE T = OBJECT f: INTEGER; END;
VAR t: T; i, x, y: INTEGER;
PROCEDURE Clobber() =
BEGIN
  t.f := t.f + 1;
END Clobber;
BEGIN
  t := NEW(T);
  t.f := 2;
  x := 0;
  FOR i := 1 TO 60 DO
    IF i MOD 2 = 0 THEN
      x := x + t.f;   (* generates availability on the THEN path *)
    ELSE
      Clobber();      (* kills availability on the ELSE path *)
    END;
    y := t.f; (* partially redundant: available only after THEN *)
    x := x + y;
  END;
  PutInt(x); PutLn();
END M.
`

func TestPREEliminatesConditionalRedundancy(t *testing.T) {
	// Baseline with plain RLE.
	prog1, _, err := driver.Compile("a.m3", partialSrc)
	if err != nil {
		t.Fatal(err)
	}
	o1 := alias.New(prog1, alias.Options{Level: alias.LevelSMFieldTypeRefs})
	mr1 := modref.Compute(prog1)
	opt.RLE(prog1, o1, mr1)
	in1 := interp.New(prog1)
	out1, err := in1.Run()
	if err != nil {
		t.Fatal(err)
	}

	// RLE + PRE.
	prog2, _, err := driver.Compile("b.m3", partialSrc)
	if err != nil {
		t.Fatal(err)
	}
	o2 := alias.New(prog2, alias.Options{Level: alias.LevelSMFieldTypeRefs})
	mr2 := modref.Compute(prog2)
	opt.RLE(prog2, o2, mr2)
	res := opt.PRE(prog2, o2, mr2)
	if res.Inserted == 0 || res.Eliminated == 0 {
		t.Fatalf("PRE should insert and eliminate: %+v", res)
	}
	in2 := interp.New(prog2)
	out2, err := in2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatalf("PRE changed output: %q vs %q", out1, out2)
	}
	if in2.Stats().HeapLoads >= in1.Stats().HeapLoads {
		t.Errorf("PRE should reduce heap loads beyond RLE: %d vs %d",
			in2.Stats().HeapLoads, in1.Stats().HeapLoads)
	}
}

func TestPREShrinksConditionalCategory(t *testing.T) {
	measure := func(usePRE bool) limit.Report {
		prog, _, err := driver.Compile("m.m3", partialSrc)
		if err != nil {
			t.Fatal(err)
		}
		o := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs})
		mr := modref.Compute(prog)
		opt.RLE(prog, o, mr)
		if usePRE {
			opt.PRE(prog, o, mr)
		}
		rep, _, err := limit.Measure(prog, o, mr)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	without := measure(false)
	with := measure(true)
	if without.ByCategory[limit.CatConditional] == 0 {
		t.Fatal("expected Conditional redundancy before PRE")
	}
	if with.ByCategory[limit.CatConditional] >= without.ByCategory[limit.CatConditional] {
		t.Errorf("PRE should shrink Conditional: %d -> %d",
			without.ByCategory[limit.CatConditional], with.ByCategory[limit.CatConditional])
	}
}

// TestPRESkipsLoadsKilledInTheirBlock pins the candidate rule: t.f is
// available after the THEN arm and not after the ELSE arm, but in the
// join block a call or a store to a path that may alias t.f kills it
// before the load. Compensation loads on the ELSE edge could not make
// that load redundant, so PRE must insert none.
func TestPRESkipsLoadsKilledInTheirBlock(t *testing.T) {
	for _, kill := range []string{"Clobber();", "u.f := i;"} {
		src := `
MODULE M;
TYPE T = OBJECT f: INTEGER; END;
VAR t, u: T; i, x, y: INTEGER;
PROCEDURE Clobber() =
BEGIN
  t.f := t.f + 1;
END Clobber;
BEGIN
  t := NEW(T);
  u := t;
  t.f := 2;
  x := 0;
  FOR i := 1 TO 60 DO
    IF i MOD 2 = 0 THEN
      x := x + t.f;
    ELSE
      Clobber();
    END;
    ` + kill + `
    y := t.f;
    x := x + y;
  END;
  PutInt(x); PutLn();
END M.
`
		prog, _, err := driver.Compile("k.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		o := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs})
		mr := modref.Compute(prog)
		opt.RLE(prog, o, mr)
		if res := opt.PRE(prog, o, mr); res.Inserted != 0 {
			t.Errorf("kill %q before the load: PRE inserted %d compensation loads, want 0", kill, res.Inserted)
		}
	}
}

func TestPREZeroTripSafety(t *testing.T) {
	// A compensation load may execute where the original did not; with a
	// NIL pointer on the compensated path it must not trap.
	src := `
MODULE M;
TYPE T = OBJECT f: INTEGER; END;
VAR t: T; x: INTEGER; go: BOOLEAN;
BEGIN
  t := NIL;
  go := FALSE;
  IF go THEN
    t := NEW(T);
    t.f := 1;
    x := t.f;
  END;
  IF go THEN
    x := x + t.f;
  END;
  PutInt(x); PutLn();
END M.
`
	prog, _, err := driver.Compile("z.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	o := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs})
	mr := modref.Compute(prog)
	opt.RLE(prog, o, mr)
	opt.PRE(prog, o, mr)
	in := interp.New(prog)
	out, err := in.Run()
	if err != nil {
		t.Fatalf("PRE introduced a trap: %v", err)
	}
	if out != "0\n" {
		t.Errorf("output %q", out)
	}
}

func TestPREPreservesSemanticsOnRandomPrograms(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(5000); seed < int64(5000+seeds); seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		base, _, err := driver.Compile("r.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		in1 := interp.New(base)
		in1.MaxSteps = 2_000_000
		want, err := in1.Run()
		if err != nil {
			continue
		}
		prog, _, err := driver.Compile("r.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		o := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs})
		mr := modref.Compute(prog)
		opt.RLE(prog, o, mr)
		opt.PRE(prog, o, mr)
		in2 := interp.New(prog)
		in2.MaxSteps = 4_000_000
		got, err := in2.Run()
		if err != nil {
			t.Fatalf("seed %d: PRE trapped: %v\n%s", seed, err, src)
		}
		if got != want {
			t.Fatalf("seed %d: PRE diverged\nwant %q\ngot  %q\n%s", seed, want, got, src)
		}
	}
}
