package tbaa

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tbaa/internal/randprog"
)

// The facade edit differential: an Analyzer that applied a sequence of
// EditProc edits must answer exactly like a from-scratch Analyzer of
// the edited source — the same Paths, the same by-name MayAlias and
// AddressTaken verdicts, the same CountPairs — and its delta-built
// access-path index must resolve every name to the same access path a
// full index rebuild over its own program would. Random edit sequences
// on randprog modules run at every level × world; hand-written cases
// pin the first-occurrence owner rules and the overlay fold.

// editDiffSeeds is the number of random modules the differential
// edits, spread round-robin over the level × world configurations.
// TBAA_DIFF_SEEDS overrides (the CI gate runs 500); -short trims it.
func editDiffSeeds(t *testing.T) int {
	if s := os.Getenv("TBAA_DIFF_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad TBAA_DIFF_SEEDS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 20
	}
	return 100
}

// editsPerSeed is how many edits each random module receives.
const editsPerSeed = 6

// editPoolSize caps the names whose pairs are compared after each edit.
const editPoolSize = 24

// requireIndexMatchesRebuild checks the published access-path index
// against a full rebuild over the analyzer's current program: the same
// names, each resolving to the identical access path.
func requireIndexMatchesRebuild(t *testing.T, a *Analyzer) {
	t.Helper()
	a.mu.Lock()
	full := a.buildSnapshotLocked()
	a.mu.Unlock()
	got := a.snapshot().paths
	if got.Len() != full.paths.Len() {
		t.Fatalf("delta index holds %d names, full rebuild %d", got.Len(), full.paths.Len())
	}
	for name, want := range full.paths.All {
		if ap, ok := got.Get(name); !ok || ap != want {
			t.Fatalf("delta index resolves %q to %v (present %v), full rebuild to %v", name, ap, ok, want)
		}
	}
}

// requireMatchesScratch compares a with a fresh Analyzer of src built
// under the same options.
func requireMatchesScratch(t *testing.T, a *Analyzer, src string, rng *rand.Rand, opts ...Option) {
	t.Helper()
	requireIndexMatchesRebuild(t, a)
	scratch, err := New(a.Module().File(), src, opts...)
	if err != nil {
		t.Fatalf("scratch build of the edited source: %v", err)
	}
	names, want := a.Paths(), scratch.Paths()
	if !slices.Equal(names, want) {
		t.Fatalf("Paths after edit %v, scratch %v", names, want)
	}
	pool := names
	if len(pool) > editPoolSize {
		pool = make([]string, editPoolSize)
		for i := range pool {
			pool[i] = names[rng.Intn(len(names))]
		}
	}
	var pairs []Pair
	for _, p := range pool {
		for _, q := range pool {
			pairs = append(pairs, Pair{P: p, Q: q})
		}
	}
	got, exp := a.MayAliasBatch(context.Background(), pairs), scratch.MayAliasBatch(context.Background(), pairs)
	for i := range pairs {
		if got[i].Err != nil || exp[i].Err != nil || got[i].MayAlias != exp[i].MayAlias {
			t.Fatalf("MayAlias(%s, %s): edited %v (%v), scratch %v (%v)",
				pairs[i].P, pairs[i].Q, got[i].MayAlias, got[i].Err, exp[i].MayAlias, exp[i].Err)
		}
	}
	for _, p := range pool {
		g, gerr := a.AddressTaken(p)
		w, werr := scratch.AddressTaken(p)
		if gerr != nil || werr != nil || g != w {
			t.Fatalf("AddressTaken(%s): edited %v (%v), scratch %v (%v)", p, g, gerr, w, werr)
		}
	}
	if g, w := a.CountPairs(), scratch.CountPairs(); g != w {
		t.Fatalf("CountPairs: edited %+v, scratch %+v", g, w)
	}
}

// procDecls returns the top-level PROCEDURE declarations of src by
// name, verbatim.
func procDecls(src string) map[string]string {
	out := make(map[string]string)
	for rest := src; ; {
		i := strings.Index(rest, "\nPROCEDURE ")
		if i < 0 {
			return out
		}
		rest = rest[i+1:]
		name := rest[len("PROCEDURE "):strings.IndexAny(rest, "(")]
		end := strings.Index(rest, "\nEND "+name+";")
		if end < 0 {
			return out
		}
		out[name] = rest[:end+len("\nEND "+name+";")]
		rest = rest[end:]
	}
}

// mutateDecl returns a random line-level variant of decl: a body line
// deleted, duplicated, swapped with its successor, or replaced by a
// line from another declaration. Variants need not compile; the caller
// lets EditProc reject them.
func mutateDecl(rng *rand.Rand, decl string, donors []string) string {
	lines := strings.Split(decl, "\n")
	begin := slices.Index(lines, "BEGIN")
	if begin < 0 || len(lines)-begin < 3 {
		return decl
	}
	i := begin + 1 + rng.Intn(len(lines)-begin-2) // a body line, never the END
	out := slices.Clone(lines)
	switch rng.Intn(4) {
	case 0:
		out = slices.Delete(out, i, i+1)
	case 1:
		out = slices.Insert(out, i, lines[i])
	case 2:
		if i+1 < len(lines)-1 {
			out[i], out[i+1] = out[i+1], out[i]
		}
	default:
		donor := strings.Split(donors[rng.Intn(len(donors))], "\n")
		out[i] = donor[rng.Intn(len(donor))]
	}
	return strings.Join(out, "\n")
}

func TestEditDifferential(t *testing.T) {
	seeds := editDiffSeeds(t)
	type config struct {
		level Level
		open  bool
	}
	var configs []config
	for _, l := range []Level{TypeDecl, FieldTypeDecl, SMFieldTypeRefs, FSTypeRefs, IPTypeRefs} {
		configs = append(configs, config{l, false}, config{l, true})
	}
	for ci, cfg := range configs {
		name := cfg.level.String()
		if cfg.open {
			name += "_open"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for k := ci; k < seeds; k += len(configs) {
				checkEditSeed(t, int64(91000+k), WithLevel(cfg.level), WithOpenWorld(cfg.open))
				if t.Failed() {
					return
				}
			}
		})
	}
}

// checkEditSeed applies a random edit sequence to one generated module
// and compares the analyzer with a scratch build after every edit.
func checkEditSeed(t *testing.T, seed int64, opts ...Option) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := randprog.Generate(seed, randprog.DefaultConfig())
	a, err := New("r.m3", src, opts...)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	a.Paths() // publish a snapshot, so edits take the delta path
	decls := procDecls(src)
	var procs, donors []string
	for name, d := range decls {
		procs = append(procs, name)
		donors = append(donors, d)
	}
	slices.Sort(procs)
	slices.Sort(donors)
	for applied, tries := 0, 0; applied < editsPerSeed && tries < 20*editsPerSeed; tries++ {
		name := procs[rng.Intn(len(procs))]
		next := mutateDecl(rng, decls[name], donors)
		if next == decls[name] {
			continue
		}
		if _, err := a.EditProc(next); err != nil {
			continue // an ill-formed variant: rejected, nothing changed
		}
		src = strings.Replace(src, decls[name], next, 1)
		decls[name] = next
		applied++
		t.Run(fmt.Sprintf("seed%d_edit%d", seed, applied), func(t *testing.T) {
			requireMatchesScratch(t, a, src, rng, opts...)
		})
		if t.Failed() {
			return
		}
	}
}

// ownersSrc has same-named locals in two procedures of different,
// unrelated types: "v.f" first occurs in First, so it names First's v
// (a T) until an edit drops it there and Second's v (an S) takes over.
const ownersSrc = `
MODULE Owners;
TYPE
  T = OBJECT f: INTEGER; END;
  S = OBJECT f: INTEGER; END;
VAR t: T; s: S; x: INTEGER;
PROCEDURE First() =
VAR v: T;
BEGIN
  v := t;
  x := v.f;
END First;
PROCEDURE Second() =
VAR v: S;
BEGIN
  v := s;
  x := v.f;
END Second;
PROCEDURE Toggle() =
BEGIN
  x := t.f;
END Toggle;
BEGIN
  First();
  Second();
  Toggle();
END Owners.
`

func TestEditOwnerRules(t *testing.T) {
	const firstDropsVF = "PROCEDURE First() =\nVAR v: T;\nBEGIN\n  v := t;\nEND First;"
	cases := []struct {
		name  string
		edits []string // applied in order
		// gone and present name paths that must be absent or present
		// after the last edit.
		gone, present []string
	}{
		{
			name:    "owner moves to the next carrier",
			edits:   []string{firstDropsVF},
			present: []string{"v.f"},
		},
		{
			name:    "owner returns to the first carrier",
			edits:   []string{firstDropsVF, "PROCEDURE First() =\nVAR v: T;\nBEGIN\n  v := t;\n  x := v.f;\nEND First;"},
			present: []string{"v.f"},
		},
		{
			name:  "only occurrence removed",
			edits: []string{"PROCEDURE Toggle() =\nBEGIN\n  x := 1;\nEND Toggle;"},
			gone:  []string{"t.f"},
		},
		{
			name:    "new name introduced",
			edits:   []string{"PROCEDURE Toggle() =\nBEGIN\n  x := t.f;\n  x := s.f;\nEND Toggle;"},
			present: []string{"s.f", "t.f"},
		},
		{
			name:  "every carrier drops the name",
			edits: []string{firstDropsVF, "PROCEDURE Second() =\nVAR v: S;\nBEGIN\n  v := s;\nEND Second;"},
			gone:  []string{"v.f"},
		},
	}
	for _, level := range []Level{TypeDecl, SMFieldTypeRefs, IPTypeRefs} {
		for _, tc := range cases {
			t.Run(level.String()+"/"+tc.name, func(t *testing.T) {
				a, err := New("owners.m3", ownersSrc, WithLevel(level))
				if err != nil {
					t.Fatal(err)
				}
				a.Paths()
				src := ownersSrc
				decls := procDecls(src)
				for _, e := range tc.edits {
					pe, err := a.EditProc(e)
					if err != nil {
						t.Fatal(err)
					}
					src = strings.Replace(src, decls[pe.Proc()], e, 1)
					decls[pe.Proc()] = e
				}
				for _, n := range tc.gone {
					if _, err := a.MayAlias(n, n); err == nil {
						t.Errorf("%s still resolves after the edits", n)
					}
				}
				for _, n := range tc.present {
					if _, err := a.MayAlias(n, n); err != nil {
						t.Errorf("%s: %v", n, err)
					}
				}
				requireMatchesScratch(t, a, src, rand.New(rand.NewSource(1)), WithLevel(level))
			})
		}
	}
}

// foldSrc is small enough that one edit of Swap, which trades four
// names for four others, changes more than an eighth of the index:
// every edit after the first folds the overlay into a new base.
const foldSrc = `
MODULE Fold;
TYPE
  T = OBJECT a, b, c, d: INTEGER; END;
VAR t, u: T; x: INTEGER;
PROCEDURE Keep() =
BEGIN
  x := t.a + u.a;
END Keep;
PROCEDURE Swap() =
BEGIN
  x := t.b + t.c + t.d + u.b;
END Swap;
BEGIN
  Keep();
  Swap();
END Fold.
`

func TestEditOverlayFold(t *testing.T) {
	bodies := []string{
		"PROCEDURE Swap() =\nBEGIN\n  x := u.c + u.d + t.b + t.a;\nEND Swap;",
		"PROCEDURE Swap() =\nBEGIN\n  x := t.b + t.c + t.d + u.b;\nEND Swap;",
	}
	for _, level := range []Level{SMFieldTypeRefs, IPTypeRefs} {
		a, err := New("fold.m3", foldSrc, WithLevel(level))
		if err != nil {
			t.Fatal(err)
		}
		a.Paths()
		decl := procDecls(foldSrc)["Swap"]
		src := foldSrc
		for k := 0; k < 12; k++ {
			next := bodies[k%2]
			if _, err := a.EditProc(next); err != nil {
				t.Fatal(err)
			}
			src = strings.Replace(src, decl, next, 1)
			decl = next
			requireMatchesScratch(t, a, src, rand.New(rand.NewSource(int64(k))), WithLevel(level))
		}
	}
}

// TestApplyEditConcurrentReaders streams edits that flip a procedure
// between two bodies while readers query: every reader must see one
// whole generation. Each state names a path the other lacks (t.b or
// u.c) and flips the owner of "v.f" (whose verdict against "s.f"
// changes with it), so a batch, a Paths list, or a MayAlias pair that
// mixed generations would show an impossible combination. Run under
// -race it also pins the immutability of the published index.
func TestApplyEditConcurrentReaders(t *testing.T) {
	const src = `
MODULE Race;
TYPE
  T = OBJECT f, b, c: INTEGER; END;
  S = OBJECT f: INTEGER; END;
VAR t, u: T; s: S; x: INTEGER;
PROCEDURE Flip() =
VAR v: T;
BEGIN
  v := t;
  x := v.f + t.b;
END Flip;
PROCEDURE Stay() =
VAR v: S;
BEGIN
  v := s;
  x := v.f + s.f;
END Stay;
BEGIN
  Flip();
  Stay();
END Race.
`
	stateA := "PROCEDURE Flip() =\nVAR v: T;\nBEGIN\n  v := t;\n  x := v.f + t.b;\nEND Flip;"
	stateB := "PROCEDURE Flip() =\nVAR v: T;\nBEGIN\n  v := t;\n  x := u.c;\nEND Flip;"
	for _, level := range []Level{SMFieldTypeRefs, IPTypeRefs} {
		a, err := New("race.m3", src, WithLevel(level))
		if err != nil {
			t.Fatal(err)
		}
		pathsA := a.Paths()
		vfA, _ := a.MayAlias("v.f", "s.f") // v.f names Flip's T-typed v
		var done atomic.Bool
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		report := func(err error) {
			select {
			case errs <- err:
			default:
			}
		}
		batch := []Pair{{"t.b", "t.b"}, {"u.c", "u.c"}, {"v.f", "s.f"}}
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done.Load() {
					vs := a.MayAliasBatch(context.Background(), batch)
					inA := vs[0].Err == nil
					if inA == (vs[1].Err == nil) {
						report(fmt.Errorf("batch saw t.b %v and u.c %v", vs[0].Err, vs[1].Err))
					}
					if inA && vs[2].MayAlias != vfA || !inA && vs[2].MayAlias == vfA {
						report(fmt.Errorf("batch in state A=%v resolved v.f to the other generation's owner", inA))
					}
					ps := a.Paths()
					if slices.Contains(ps, "t.b") == slices.Contains(ps, "u.c") {
						report(fmt.Errorf("Paths mixed generations: %v", ps))
					}
					if slices.Contains(ps, "t.b") && !slices.Equal(ps, pathsA) {
						report(fmt.Errorf("Paths in state A = %v, want %v", ps, pathsA))
					}
					if _, err := a.MayAlias("v.f", "s.f"); err != nil {
						report(err)
					}
				}
			}()
		}
		for k := 0; k < 200; k++ {
			next := stateB
			if k%2 == 1 {
				next = stateA
			}
			if _, err := a.EditProc(next); err != nil {
				t.Fatal(err)
			}
		}
		done.Store(true)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%v: %v", level, err)
		}
	}
}
