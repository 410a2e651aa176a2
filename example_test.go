package tbaa_test

import (
	"context"
	"fmt"
	"log"

	"tbaa"
)

const exampleSrc = `
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
  t := s;          (* the only merge: T may now reference S1 objects *)
  sink := t.f;
  sink := s.f;
  sink := u.f;
  sink := t.g;
END Quick.
`

// New compiles and analyzes in one call; MayAlias answers a single
// query by access-path name.
func ExampleNew() {
	a, err := tbaa.New("quick.m3", exampleSrc)
	if err != nil {
		log.Fatal(err)
	}
	merged, _ := a.MayAlias("t.f", "s.f")   // S1 was assigned into T
	unmerged, _ := a.MayAlias("t.f", "u.f") // S2 never was
	fmt.Printf("%s: t.f~s.f=%v t.f~u.f=%v\n", a.Name(), merged, unmerged)
	// Output:
	// SMFieldTypeRefs: t.f~s.f=true t.f~u.f=false
}

// A Module is one frontend shared by many Analyzers: each NewAnalyzer
// call lowers a private program, so levels and passes never interfere.
func ExampleModule_NewAnalyzer() {
	mod, err := tbaa.Compile("quick.m3", exampleSrc)
	if err != nil {
		log.Fatal(err)
	}
	for _, lvl := range tbaa.Levels() {
		a, err := mod.NewAnalyzer(tbaa.WithLevel(lvl))
		if err != nil {
			log.Fatal(err)
		}
		siblings, _ := a.MayAlias("s.f", "u.f")
		fmt.Printf("%-15s s.f~u.f=%v\n", a.Name(), siblings)
	}
	// Output:
	// TypeDecl        s.f~u.f=true
	// FieldTypeDecl   s.f~u.f=false
	// SMFieldTypeRefs s.f~u.f=false
}

// MayAliasBatch answers many queries against one snapshot and honors
// context cancellation between pairs.
func ExampleAnalyzer_MayAliasBatch() {
	a, err := tbaa.New("quick.m3", exampleSrc, tbaa.WithLevel(tbaa.SMFieldTypeRefs))
	if err != nil {
		log.Fatal(err)
	}
	pairs := []tbaa.Pair{
		{P: "t.f", Q: "s.f"},
		{P: "t.f", Q: "u.f"},
		{P: "t.f", Q: "t.g"},
	}
	for _, v := range a.MayAliasBatch(context.Background(), pairs) {
		if v.Err != nil {
			log.Fatal(v.Err)
		}
		fmt.Printf("MayAlias(%s, %s) = %v\n", v.Pair.P, v.Pair.Q, v.MayAlias)
	}
	// Output:
	// MayAlias(t.f, s.f) = true
	// MayAlias(t.f, u.f) = false
	// MayAlias(t.f, t.g) = false
}

// Queries is the iterator form of MayAliasBatch: verdicts are produced
// lazily as the range loop pulls them.
func ExampleAnalyzer_Queries() {
	a, err := tbaa.New("quick.m3", exampleSrc)
	if err != nil {
		log.Fatal(err)
	}
	pairs := []tbaa.Pair{{P: "t.f", Q: "s.f"}, {P: "s.f", Q: "u.f"}}
	for v := range a.Queries(context.Background(), pairs) {
		fmt.Printf("%s ~ %s: %v\n", v.Pair.P, v.Pair.Q, v.MayAlias)
	}
	// Output:
	// t.f ~ s.f: true
	// s.f ~ u.f: false
}

// WithPasses runs an optimization pipeline over the lowered program at
// construction; PassResults reports what each pass did.
func ExampleWithPasses() {
	const loopSrc = `
MODULE Demo;
TYPE
  Inner = REF INTEGER;
  Outer = OBJECT b: Inner; END;
VAR
  a: Outer;
  i, x: INTEGER;
BEGIN
  a := NEW(Outer);
  a.b := NEW(Inner);
  a.b^ := 5;
  x := 0;
  FOR i := 1 TO 1000 DO
    x := x + a.b^;    (* loop-invariant: hoistable *)
  END;
  PutInt(x); PutLn();
END Demo.
`
	a, err := tbaa.New("demo.m3", loopSrc, tbaa.WithPasses(tbaa.RLE()))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range a.PassResults() {
		fmt.Printf("%s: hoisted %d, eliminated %d\n", r.Pass, r.Hoisted, r.Eliminated)
	}
	out, stats, err := a.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("output %sheap loads after RLE: %d\n", out, stats.HeapLoads)
	// Output:
	// rle: hoisted 2, eliminated 3
	// output 5000
	// heap loads after RLE: 0
}

// ModuleHash is the content-addressed cache key the analysis server
// (cmd/tbaad) stores compiled modules under: a stable function of the
// source bytes alone.
func ExampleModuleHash() {
	mod, err := tbaa.Compile("quick.m3", exampleSrc)
	if err != nil {
		log.Fatal(err)
	}
	// The module's hash is the hash of its source — the file name does
	// not participate, so any client computes the same key.
	fmt.Println(mod.Hash() == tbaa.ModuleHash(exampleSrc))
	fmt.Println(len(mod.Hash()))
	// Output:
	// true
	// 64
}
