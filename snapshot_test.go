// Tests for the Analyzer's lock-free query snapshot: concurrent
// queries must never block each other, must see consistent state while
// Invalidate republishes snapshots, and sharded batches must be
// byte-identical to sequential ones.
package tbaa_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"tbaa"
)

// snapshotFixture builds an interprocedural analyzer (the configuration
// with the most shared lazily-built state: flow facts, RTA summaries,
// the partition) over a stock benchmark, plus an all-pairs query vector
// large enough to engage MayAliasBatch's worker sharding.
func snapshotFixture(t *testing.T) (*tbaa.Analyzer, []tbaa.Pair, []tbaa.Verdict, tbaa.PairCounts) {
	t.Helper()
	var bm tbaa.Benchmark
	found := false
	for _, b := range tbaa.Benchmarks() {
		if b.Name == "k-tree" {
			bm, found = b, true
		}
	}
	if !found {
		t.Fatal("stock benchmark k-tree missing")
	}
	mod, err := tbaa.Compile(bm.Name+".m3", bm.Source)
	if err != nil {
		t.Fatal(err)
	}
	a, err := mod.NewAnalyzer(tbaa.WithLevel(tbaa.IPTypeRefs))
	if err != nil {
		t.Fatal(err)
	}
	names := a.Paths()
	var pairs []tbaa.Pair
	for _, p := range names {
		for _, q := range names {
			pairs = append(pairs, tbaa.Pair{P: p, Q: q})
		}
	}
	if len(pairs) < 600 {
		t.Fatalf("want enough pairs to engage batch sharding, have %d", len(pairs))
	}
	want := a.MayAliasBatch(context.Background(), pairs)
	return a, pairs, want, a.CountPairs()
}

// TestSnapshotConcurrentInvalidate hammers one Analyzer from 8 query
// goroutines while another loops Invalidate. Every verdict must match
// the precomputed expectation — rebuilds are deterministic and
// atomically published, so no query may ever observe a torn or
// diverging snapshot. Run under -race in CI.
func TestSnapshotConcurrentInvalidate(t *testing.T) {
	a, pairs, want, wantPC := snapshotFixture(t)
	ctx := context.Background()
	var done atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			a.Invalidate()
		}
		done.Store(true)
	}()

	const goroutines = 8
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for round := 0; !done.Load() || round < 2; round++ {
				switch g % 4 {
				case 0: // single queries
					for i := g; i < len(pairs); i += 97 {
						ok, err := a.MayAlias(pairs[i].P, pairs[i].Q)
						if err != nil || ok != want[i].MayAlias {
							t.Errorf("goroutine %d: MayAlias(%s, %s) = %v, %v; want %v",
								g, pairs[i].P, pairs[i].Q, ok, err, want[i].MayAlias)
							return
						}
					}
				case 1: // sharded batch
					got := a.MayAliasBatch(ctx, pairs)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("goroutine %d: batch verdicts diverged", g)
						return
					}
				case 2: // pair metrics (flow facts + worker pool)
					if pc := a.CountPairs(); pc != wantPC {
						t.Errorf("goroutine %d: CountPairs = %+v, want %+v", g, pc, wantPC)
						return
					}
				case 3: // iterator + vocabulary + AddressTaken
					for v := range a.Queries(ctx, pairs[:64]) {
						if v.Err != nil {
							t.Errorf("goroutine %d: query error: %v", g, v.Err)
							return
						}
					}
					if _, err := a.AddressTaken(a.Paths()[0]); err != nil {
						t.Errorf("goroutine %d: AddressTaken: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestInvalidateAfterStructuralPasses pins the embedder-visible shape
// of the mutated-program rebuild: an analyzer whose pass pipeline
// rewrote the program (RLE removes loads, PRE inserts fresh ones) must
// keep answering identically across Invalidate — the first query after
// Invalidate once nil-panicked on exactly this configuration, and
// identity collisions made verdicts drift.
func TestInvalidateAfterStructuralPasses(t *testing.T) {
	for _, bm := range tbaa.Benchmarks() {
		mod, err := tbaa.Compile(bm.Name+".m3", bm.Source)
		if err != nil {
			t.Fatal(err)
		}
		a, err := mod.NewAnalyzer(
			tbaa.WithLevel(tbaa.SMFieldTypeRefs),
			tbaa.WithPasses(tbaa.MinvInline(), tbaa.RLE(), tbaa.PRE()),
		)
		if err != nil {
			t.Fatal(err)
		}
		names := a.Paths()
		if len(names) > 24 {
			names = names[:24]
		}
		var pairs []tbaa.Pair
		for _, p := range names {
			for _, q := range names {
				pairs = append(pairs, tbaa.Pair{P: p, Q: q})
			}
		}
		before := a.MayAliasBatch(context.Background(), pairs)
		a.Invalidate()
		after := a.MayAliasBatch(context.Background(), pairs)
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: verdicts drifted across Invalidate", bm.Name)
		}
		a.Invalidate() // a second rebuild re-interns the same mutated program
		if pc1, pc2 := a.CountPairs(), a.CountPairs(); pc1 != pc2 {
			t.Fatalf("%s: CountPairs unstable after double Invalidate: %+v vs %+v", bm.Name, pc1, pc2)
		}
	}
}

// TestMayAliasBatchShardedMatchesSequential pins that the sharded batch
// path returns verdicts positionally identical to a fresh analyzer's
// (sequential-sized) answers, including mid-vector resolution errors.
func TestMayAliasBatchShardedMatchesSequential(t *testing.T) {
	a, pairs, want, _ := snapshotFixture(t)
	bad := append([]tbaa.Pair{}, pairs...)
	bad[len(bad)/2] = tbaa.Pair{P: "no.such.path", Q: bad[0].Q}
	got := a.MayAliasBatch(context.Background(), bad)
	for i, v := range got {
		if i == len(bad)/2 {
			if v.Err == nil {
				t.Fatal("unknown path did not error")
			}
			continue
		}
		if v.Err != nil || v.MayAlias != want[i].MayAlias {
			t.Fatalf("pair %d: verdict %+v, want %+v", i, v, want[i])
		}
	}
}

// TestMayAliasBatchCancelSharded checks cancellation on the sharded
// path: once the context is done, every remaining verdict carries the
// context's error and none carries a stale answer.
func TestMayAliasBatchCancelSharded(t *testing.T) {
	a, pairs, _, _ := snapshotFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := a.MayAliasBatch(ctx, pairs)
	for i, v := range got {
		if v.Err == nil {
			t.Fatalf("pair %d: no error after cancellation", i)
		}
	}
}
