// Tests for the persistent artifact cache: a warm-started Analyzer must
// answer byte-identically to a from-scratch build on every stock
// benchmark and a randprog sweep at every level × world (the tentpole's
// round-trip differential gate), and every way an artifact can rot on
// disk — truncation, bit flips, version skew, a key collision — must
// fall back to a clean build and overwrite the bad file.
package tbaa_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"tbaa"
	"tbaa/internal/artifact"
	"tbaa/internal/randprog"
)

func artifactLevels() []tbaa.Level {
	return []tbaa.Level{tbaa.TypeDecl, tbaa.FieldTypeDecl, tbaa.SMFieldTypeRefs, tbaa.FSTypeRefs, tbaa.IPTypeRefs}
}

// queryPairs builds an all-pairs vector over (at most 64 of) the
// analyzer's access paths.
func queryPairs(a *tbaa.Analyzer) []tbaa.Pair {
	names := a.Paths()
	if len(names) > 64 {
		names = names[:64]
	}
	pairs := make([]tbaa.Pair, 0, len(names)*len(names))
	for _, p := range names {
		for _, q := range names {
			pairs = append(pairs, tbaa.Pair{P: p, Q: q})
		}
	}
	return pairs
}

// roundTrip builds cold (writing the artifact), then warm-starts from a
// freshly compiled module — a simulated process restart — and requires
// verdicts, pair metrics, vocabulary, and AddressTaken to be identical.
// extra options ride along on both starts.
func roundTrip(t *testing.T, file, src string, lvl tbaa.Level, open bool, dir string, extra ...tbaa.Option) {
	t.Helper()
	ctx := context.Background()
	mod, err := tbaa.Compile(file, src)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	opts := append([]tbaa.Option{tbaa.WithLevel(lvl), tbaa.WithOpenWorld(open), tbaa.WithArtifactCache(dir)}, extra...)
	cold, err := mod.NewAnalyzer(opts...)
	if err != nil {
		t.Fatalf("%s l%d open=%v: cold build: %v", file, lvl, open, err)
	}
	if got := cold.ArtifactStatus(); got != tbaa.ArtifactMiss {
		t.Fatalf("%s l%d open=%v: cold status = %v, want miss", file, lvl, open, got)
	}
	// A separate Compile simulates the restart: nothing is shared with
	// the cold module but the source (and therefore the hash).
	mod2, err := tbaa.Compile(file, src)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := mod2.NewAnalyzer(opts...)
	if err != nil {
		t.Fatalf("%s l%d open=%v: warm start: %v", file, lvl, open, err)
	}
	if got := warm.ArtifactStatus(); got != tbaa.ArtifactHit {
		t.Fatalf("%s l%d open=%v: warm status = %v, want hit", file, lvl, open, got)
	}
	if !reflect.DeepEqual(cold.Paths(), warm.Paths()) {
		t.Fatalf("%s l%d open=%v: path vocabulary diverged", file, lvl, open)
	}
	pairs := queryPairs(cold)
	want := cold.MayAliasBatch(ctx, pairs)
	got := warm.MayAliasBatch(ctx, pairs)
	if !reflect.DeepEqual(want, got) {
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("%s l%d open=%v: verdict for (%s, %s): cold %+v, warm %+v",
					file, lvl, open, pairs[i].P, pairs[i].Q, want[i], got[i])
			}
		}
	}
	if wc, gc := cold.CountPairs(), warm.CountPairs(); wc != gc {
		t.Fatalf("%s l%d open=%v: CountPairs cold %+v, warm %+v", file, lvl, open, wc, gc)
	}
	for _, p := range cold.Paths() {
		w, err1 := cold.AddressTaken(p)
		g, err2 := warm.AddressTaken(p)
		if err1 != nil || err2 != nil || w != g {
			t.Fatalf("%s l%d open=%v: AddressTaken(%s): cold %v/%v, warm %v/%v",
				file, lvl, open, p, w, err1, g, err2)
		}
	}
	// The warm generation must survive an Invalidate (which rebuilds the
	// analyses through the incremental path seeded by the decoded state).
	warm.Invalidate()
	if after := warm.MayAliasBatch(ctx, pairs); !reflect.DeepEqual(want, after) {
		t.Fatalf("%s l%d open=%v: verdicts drifted across Invalidate after warm start", file, lvl, open)
	}
}

// TestArtifactRoundTripStockBenchmarks runs the round-trip differential
// gate over every stock benchmark at every level × world.
func TestArtifactRoundTripStockBenchmarks(t *testing.T) {
	for _, bm := range tbaa.Benchmarks() {
		for _, lvl := range artifactLevels() {
			for _, open := range []bool{false, true} {
				dir := t.TempDir()
				roundTrip(t, bm.Name+".m3", bm.Source, lvl, open, dir)
			}
		}
	}
}

// TestArtifactPerTypeGroupsBelowSM: below SMFieldTypeRefs no
// TypeRefsTable is built, so WithPerTypeGroups(true) is the cacheable
// default configuration and must warm-start like it. From
// SMFieldTypeRefs up the variant computes its own table and still
// bypasses the cache.
func TestArtifactPerTypeGroupsBelowSM(t *testing.T) {
	bm := tbaa.Benchmarks()[0]
	for _, lvl := range []tbaa.Level{tbaa.TypeDecl, tbaa.FieldTypeDecl} {
		for _, open := range []bool{false, true} {
			roundTrip(t, bm.Name+".m3", bm.Source, lvl, open, t.TempDir(), tbaa.WithPerTypeGroups(true))
		}
	}
	for _, lvl := range []tbaa.Level{tbaa.SMFieldTypeRefs, tbaa.FSTypeRefs, tbaa.IPTypeRefs} {
		a, err := tbaa.New(bm.Name+".m3", bm.Source, tbaa.WithLevel(lvl),
			tbaa.WithPerTypeGroups(true), tbaa.WithArtifactCache(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		if got := a.ArtifactStatus(); got != tbaa.ArtifactNone {
			t.Errorf("%v per-type groups: status = %v, want none", lvl, got)
		}
	}
}

// TestArtifactRoundTripRandprog sweeps randprog-generated modules
// through the same gate. The seed count scales with TBAA_ARTIFACT_SEEDS
// (CI's differential job runs the full 500); the default keeps tier-1
// fast.
func TestArtifactRoundTripRandprog(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	if s := os.Getenv("TBAA_ARTIFACT_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("TBAA_ARTIFACT_SEEDS=%q: %v", s, err)
		}
		seeds = n
	}
	for seed := int64(61000); seed < int64(61000)+int64(seeds); seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		for _, lvl := range artifactLevels() {
			for _, open := range []bool{false, true} {
				roundTrip(t, "r.m3", src, lvl, open, t.TempDir())
			}
		}
	}
}

// TestArtifactEditAfterWarmStart pins the cache/edit interaction: an
// analyzer decoded from an artifact, then edited, must answer exactly
// as a never-cached analyzer of the edited module.
func TestArtifactEditAfterWarmStart(t *testing.T) {
	src := `MODULE M;
TYPE T = OBJECT f: INTEGER; g: INTEGER END;
VAR a: T; b: T; s: INTEGER;
PROCEDURE Bump(t: T) = BEGIN t.f := t.f + 1 END Bump;
BEGIN a := NEW(T); b := NEW(T); Bump(a); Bump(b); s := a.f + b.g END M.`
	edit := `PROCEDURE Bump(t: T) = BEGIN t.g := t.g + 2; t.f := t.g END Bump;`

	dir := t.TempDir()
	for _, lvl := range artifactLevels() {
		mod, err := tbaa.Compile("m.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mod.NewAnalyzer(tbaa.WithLevel(lvl), tbaa.WithArtifactCache(dir)); err != nil {
			t.Fatal(err)
		}
		mod2, err := tbaa.Compile("m.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := mod2.NewAnalyzer(tbaa.WithLevel(lvl), tbaa.WithArtifactCache(dir))
		if err != nil {
			t.Fatal(err)
		}
		if warm.ArtifactStatus() != tbaa.ArtifactHit {
			t.Fatalf("l%d: warm status = %v, want hit", lvl, warm.ArtifactStatus())
		}
		if _, err := warm.EditProc(edit); err != nil {
			t.Fatalf("l%d: edit after warm start: %v", lvl, err)
		}

		modRef, err := tbaa.Compile("m.m3", src)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := modRef.NewAnalyzer(tbaa.WithLevel(lvl))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.EditProc(edit); err != nil {
			t.Fatal(err)
		}
		pairs := queryPairs(ref)
		want := ref.MayAliasBatch(context.Background(), pairs)
		got := warm.MayAliasBatch(context.Background(), pairs)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("l%d: edited warm-start analyzer diverged from edited fresh analyzer", lvl)
		}
	}
}

// ---------------------------------------------------------------------------
// Robustness: every corruption falls back to a clean build and
// overwrites the bad artifact.

// corruptionFixture cold-builds one artifact and returns its module,
// source, options, cache dir, and on-disk path.
func corruptionFixture(t *testing.T) (src, dir, path string, opts []tbaa.Option) {
	t.Helper()
	var bm tbaa.Benchmark
	for _, b := range tbaa.Benchmarks() {
		if b.Name == "k-tree" {
			bm = b
		}
	}
	if bm.Source == "" {
		t.Fatal("stock benchmark k-tree missing")
	}
	dir = t.TempDir()
	opts = []tbaa.Option{tbaa.WithLevel(tbaa.IPTypeRefs), tbaa.WithArtifactCache(dir)}
	mod, err := tbaa.Compile("k-tree.m3", bm.Source)
	if err != nil {
		t.Fatal(err)
	}
	a, err := mod.NewAnalyzer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if a.ArtifactStatus() != tbaa.ArtifactMiss {
		t.Fatalf("fixture status = %v, want miss", a.ArtifactStatus())
	}
	path = artifact.Path(dir, artifact.Key{ModuleHash: mod.Hash(), Level: int(tbaa.IPTypeRefs), Open: false})
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cold build left no artifact at %s: %v", path, err)
	}
	return bm.Source, dir, path, opts
}

// recoverAndOverwrite asserts that building against the damaged cache
// (1) reports ArtifactInvalid, (2) answers exactly as an uncached
// build, and (3) rewrites the artifact so the next start hits again.
func recoverAndOverwrite(t *testing.T, src, dir, path string, opts []tbaa.Option) {
	t.Helper()
	mod, err := tbaa.Compile("k-tree.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := mod.NewAnalyzer(opts...)
	if err != nil {
		t.Fatalf("rebuild over damaged artifact: %v", err)
	}
	if got := a.ArtifactStatus(); got != tbaa.ArtifactInvalid {
		t.Fatalf("status after corruption = %v, want invalid", got)
	}
	clean, err := mod.NewAnalyzer(tbaa.WithLevel(tbaa.IPTypeRefs))
	if err != nil {
		t.Fatal(err)
	}
	pairs := queryPairs(clean)
	if want, got := clean.MayAliasBatch(context.Background(), pairs), a.MayAliasBatch(context.Background(), pairs); !reflect.DeepEqual(want, got) {
		t.Fatal("fallback build diverged from uncached build")
	}
	mod2, err := tbaa.Compile("k-tree.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	next, err := mod2.NewAnalyzer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := next.ArtifactStatus(); got != tbaa.ArtifactHit {
		t.Fatalf("status after recovery = %v, want hit (bad artifact not overwritten at %s)", got, path)
	}
}

func TestArtifactTruncatedFile(t *testing.T) {
	src, dir, path, opts := corruptionFixture(t)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	recoverAndOverwrite(t, src, dir, path, opts)
}

func TestArtifactBitFlippedPayload(t *testing.T) {
	src, dir, path, opts := corruptionFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-len(data)/4] ^= 0x40
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	recoverAndOverwrite(t, src, dir, path, opts)
}

func TestArtifactStaleFormatVersion(t *testing.T) {
	src, dir, path, opts := corruptionFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The format version is the little-endian u32 right after the magic.
	data[8] = byte(artifact.FormatVersion + 1)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	recoverAndOverwrite(t, src, dir, path, opts)
}

// TestArtifactKeyCollision plants a well-formed artifact of a different
// module at this module's key — the on-disk analogue of a hash
// collision. The self-describing header names the module it was really
// built from, so the load must reject it.
func TestArtifactKeyCollision(t *testing.T) {
	src, dir, path, opts := corruptionFixture(t)
	otherSrc := randprog.Generate(9001, randprog.DefaultConfig())
	otherMod, err := tbaa.Compile("other.m3", otherSrc)
	if err != nil {
		t.Fatal(err)
	}
	otherDir := t.TempDir()
	if _, err := otherMod.NewAnalyzer(tbaa.WithLevel(tbaa.IPTypeRefs), tbaa.WithArtifactCache(otherDir)); err != nil {
		t.Fatal(err)
	}
	otherPath := artifact.Path(otherDir, artifact.Key{ModuleHash: otherMod.Hash(), Level: int(tbaa.IPTypeRefs), Open: false})
	planted, err := os.ReadFile(otherPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, planted, 0o600); err != nil {
		t.Fatal(err)
	}
	recoverAndOverwrite(t, src, dir, path, opts)
}

// TestArtifactRemove covers the server's edit-invalidation hook: after
// Remove, every level and world of the module misses.
func TestArtifactRemove(t *testing.T) {
	src, dir, path, opts := corruptionFixture(t)
	mod, err := tbaa.Compile("k-tree.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.Remove(dir, mod.Hash()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("artifact survived Remove: %v", err)
	}
	if ms, err := filepath.Glob(filepath.Join(dir, mod.Hash()+"*")); err != nil || len(ms) != 0 {
		t.Fatalf("leftover artifacts after Remove: %v (%v)", ms, err)
	}
	a, err := mod.NewAnalyzer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.ArtifactStatus(); got != tbaa.ArtifactMiss {
		t.Fatalf("status after Remove = %v, want miss", got)
	}
}
