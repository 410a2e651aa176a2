package tbaa

import (
	"context"
	"fmt"
	"iter"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tbaa/internal/alias"
	"tbaa/internal/cow"
	"tbaa/internal/driver"
	"tbaa/internal/interp"
	"tbaa/internal/ir"
	"tbaa/internal/limit"
	"tbaa/internal/sim"
)

// Analyzer is a built TBAA instance over one lowering of a Module: the
// configured passes have run, and the alias oracle answers may-alias
// queries about the (possibly optimized) program. Access paths are
// named by their source syntax ("t.f", "a.b^", "v[i]"); Paths lists
// the names occurring in the program.
//
// An Analyzer is safe for concurrent use, and queries do not block one
// another: the query path reads an immutable snapshot (the partition
// oracle plus the access-path index) published through an atomic
// pointer, so any number of goroutines query in parallel with no lock.
// The internal mutex is taken only to build the first snapshot, by
// Invalidate, and by the whole-program executions (Run, Simulate,
// LimitStudy). Queries that overlap an Invalidate see either the old
// snapshot or the new one, never a mix.
type Analyzer struct {
	mod      *Module
	results  []PassResult
	artifact ArtifactStatus

	// mu guards snapshot (re)builds and the non-query entry points; the
	// query fast path never takes it.
	mu   sync.Mutex
	prog *ir.Program
	env  *driver.PassEnv
	snap atomic.Pointer[querySnap]
	// book is the edit bookkeeping of the access-path index (see
	// pathBook), built on the first ApplyEdit and guarded by mu.
	book *pathBook
}

// querySnap is one immutable generation of query state: the built
// oracle and the access-path name index. A snapshot is never mutated
// after it is published; the sorted name list only Paths needs is
// computed on first use.
type querySnap struct {
	oracle *alias.Analysis
	// paths maps each name to the first instruction access path that
	// carries it, in Procs → Blocks → Instrs order. An edit derives the
	// next generation's index from this one (see cow.Map), so it costs
	// the edited procedure's names, not the program's.
	paths     *cow.Map[string, *ir.AP]
	namesOnce sync.Once
	names     []string // sorted keys of paths
}

// sortedNames returns the snapshot's sorted path names, sorting them
// on first use.
func (s *querySnap) sortedNames() []string {
	s.namesOnce.Do(func() {
		s.names = make([]string, 0, s.paths.Len())
		for name := range s.paths.All {
			s.names = append(s.names, name)
		}
		sort.Strings(s.names)
	})
	return s.names
}

// NewAnalyzer lowers a fresh program from the module, runs the
// configured passes over it, and returns an Analyzer for the result.
// Lowering never mutates the module, so concurrent calls are safe.
//
// Under WithArtifactCache a cacheable configuration first tries to
// decode a persisted snapshot, skipping lowering and analysis entirely
// on a hit; on a miss (or an invalid artifact) it builds from scratch
// and (re)writes the artifact.
func (m *Module) NewAnalyzer(options ...Option) (*Analyzer, error) {
	cfg, err := newConfig(options)
	if err != nil {
		return nil, fmt.Errorf("tbaa: %w", err)
	}
	status := ArtifactNone
	if cfg.cacheable() && !m.edited.Load() {
		// Surface a bad configuration as the configuration error it is,
		// not as an artifact miss.
		if err := cfg.opts.Validate(); err != nil {
			return nil, fmt.Errorf("tbaa: %w", err)
		}
		var env *driver.PassEnv
		var qs *querySnap
		if env, qs, status = m.warmStart(cfg); status == ArtifactHit {
			a := &Analyzer{mod: m, artifact: status, prog: env.Prog, env: env}
			a.snap.Store(qs)
			return a, nil
		}
	}
	prog := m.lower()
	env, err := driver.NewPassEnv(prog, cfg.opts)
	if err != nil {
		return nil, fmt.Errorf("tbaa: %w", err)
	}
	var passes []driver.Pass
	for _, p := range cfg.passes {
		passes = append(passes, p.pass())
	}
	results, err := driver.RunPasses(env, passes...)
	if err != nil {
		return nil, fmt.Errorf("tbaa: %w", err)
	}
	a := &Analyzer{mod: m, artifact: status, prog: prog, env: env}
	for _, r := range results {
		a.results = append(a.results, fromDriverResult(r))
	}
	// Re-check edited here rather than trusting the gate above: an edit
	// that landed before lowering would otherwise persist the edited
	// program under the pristine hash. EditProc (write lock) serializes
	// with lower (read lock), so a false flag after lowering proves the
	// program predates any edit; an edit after lowering is harmless —
	// the artifact records the pre-edit program the hash names.
	if status != ArtifactNone && !m.edited.Load() {
		m.writeArtifact(cfg, env)
	}
	return a, nil
}

// Module returns the frontend artifact this Analyzer was built from.
func (a *Analyzer) Module() *Module { return a.mod }

// Level returns the configured analysis level.
func (a *Analyzer) Level() Level { return Level(a.env.Opts.Level) }

// Name identifies the analysis in reports, e.g. "SMFieldTypeRefs(open)".
func (a *Analyzer) Name() string {
	n := a.Level().String()
	if a.env.Opts.OpenWorld {
		n += "(open)"
	}
	return n
}

// PassResults returns what each configured pass did, in pipeline
// order. The results are deep copies: callers may mutate them freely.
func (a *Analyzer) PassResults() []PassResult {
	out := slices.Clone(a.results)
	for i := range out {
		out[i].PerProc = maps.Clone(out[i].PerProc)
	}
	return out
}

// ---------------------------------------------------------------------------
// May-alias queries

// Pair names two access paths for a may-alias query.
type Pair struct {
	P, Q string
}

// Verdict is the answer to one may-alias query. Err is non-nil when the
// query could not be answered: a *PathError for an unknown access path,
// or the context error when a batch was canceled mid-flight.
type Verdict struct {
	Pair     Pair
	MayAlias bool
	Err      error
}

// snapshot returns the current query snapshot, building and publishing
// the first one on demand. The fast path is a single atomic load.
func (a *Analyzer) snapshot() *querySnap {
	if s := a.snap.Load(); s != nil {
		return s
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if s := a.snap.Load(); s != nil {
		return s
	}
	s := a.buildSnapshotLocked()
	a.snap.Store(s)
	return s
}

// buildSnapshotLocked builds the oracle and the access-path index for
// the program's current shape with one walk over every procedure; a.mu
// must be held.
func (a *Analyzer) buildSnapshotLocked() *querySnap {
	oracle := a.env.Oracle()
	paths := make(map[string]*ir.AP)
	for _, p := range a.prog.Procs {
		procPaths(p, func(name string, ap *ir.AP) {
			if _, ok := paths[name]; !ok {
				paths[name] = ap
			}
		})
	}
	return &querySnap{oracle: oracle, paths: cow.FromMap(paths)}
}

// procPaths calls fn with the name and access path of every
// instruction path in p, in Blocks → Instrs order. It is the one
// per-procedure walk behind both the full index build and the edit
// delta (see pathBook), so both resolve a name the same way.
func procPaths(p *ir.Proc, fn func(name string, ap *ir.AP)) {
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			if ap := b.Instrs[i].AP; ap != nil {
				fn(ap.String(), ap)
			}
		}
	}
}

// Invalidate discards the published query snapshot and every memoized
// analysis underneath it (oracle, mod-ref summaries, flow facts), then
// rebuilds and atomically publishes a fresh snapshot. Queries already
// in flight finish against the snapshot they started with; queries that
// begin after Invalidate returns see only rebuilt state.
//
// The rebuild is incremental when it can be: the pass environment
// tracks which procedures mutated since the last build (the per-proc
// mutation clock ir.Program.MarkMutated stamps) and rebuilds only
// their access paths, flow facts, and mod-ref SCC summaries, falling
// back to a from-scratch build whenever the delta preconditions do not
// hold. Both routes produce identical verdicts for the program's
// current shape — the delta path is differentially pinned to the
// from-scratch build, so a dirty-tracking bug can only cost
// performance, never soundness. The access-path name index is the
// exception: Invalidate always rebuilds it whole and drops the edit
// bookkeeping ApplyEdit keeps; only ApplyEdit updates it by delta.
// With no intervening mutation (ApplyEdit, or a pass pipeline step)
// the rebuilt snapshot answers exactly as the old one; Invalidate then
// merely drops accumulated flow facts and lazily built state, its
// original role for long-lived embedders.
func (a *Analyzer) Invalidate() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.env.Invalidate()
	a.book = nil
	if a.snap.Load() != nil {
		a.snap.Store(a.buildSnapshotLocked())
	}
}

func (s *querySnap) resolve(file, name string) (*ir.AP, error) {
	if ap, ok := s.paths.Get(name); ok {
		return ap, nil
	}
	return nil, &PathError{File: file, Path: name}
}

func (a *Analyzer) verdict(s *querySnap, p Pair) Verdict {
	v := Verdict{Pair: p}
	ap, err := s.resolve(a.mod.File(), p.P)
	if err != nil {
		v.Err = err
		return v
	}
	aq, err := s.resolve(a.mod.File(), p.Q)
	if err != nil {
		v.Err = err
		return v
	}
	v.MayAlias = s.oracle.MayAlias(ap, aq)
	return v
}

// Paths returns the sorted names of every access path occurring in the
// program — the vocabulary MayAlias queries draw from.
func (a *Analyzer) Paths() []string {
	return slices.Clone(a.snapshot().sortedNames())
}

// MayAlias reports whether the two named access paths may denote the
// same memory location.
func (a *Analyzer) MayAlias(p, q string) (bool, error) {
	v := a.verdict(a.snapshot(), Pair{P: p, Q: q})
	return v.MayAlias, v.Err
}

// batchShardMin is the batch size below which MayAliasBatch stays
// sequential: a partition-oracle query is tens of nanoseconds, so
// small batches would spend more on goroutine fan-out than on work.
const batchShardMin = 512

// MayAliasBatch answers every pair against one consistent snapshot and
// returns one Verdict per input pair in order. Large batches shard the
// pair vector across GOMAXPROCS workers; the verdict slice is
// positional, so the result is identical whatever the worker count.
// Cancellation is honored between pairs: once ctx is done, the
// remaining verdicts of each worker's stripe carry ctx's error.
func (a *Analyzer) MayAliasBatch(ctx context.Context, pairs []Pair) []Verdict {
	out := make([]Verdict, len(pairs))
	s := a.snapshot()
	fill := func(start, stride int) {
		for i := start; i < len(pairs); i += stride {
			if err := ctx.Err(); err != nil {
				for j := i; j < len(pairs); j += stride {
					out[j] = Verdict{Pair: pairs[j], Err: err}
				}
				return
			}
			out[i] = a.verdict(s, pairs[i])
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if len(pairs) < batchShardMin || workers <= 1 {
		fill(0, 1)
		return out
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fill(w, workers)
		}(w)
	}
	wg.Wait()
	return out
}

// Queries returns an iterator over the pairs' verdicts, answering each
// query lazily as it is pulled against the snapshot current when
// Queries was called. When ctx is canceled the iterator yields one
// verdict carrying ctx's error and stops.
//
// Path names are resolved up front and no lock is held while a verdict
// is yielded, so the consumer may call MayAlias, AddressTaken, or a
// nested Queries from inside the loop without self-deadlock (see
// TestQueriesReentrant).
func (a *Analyzer) Queries(ctx context.Context, pairs []Pair) iter.Seq[Verdict] {
	type resolved struct {
		p, q *ir.AP
		err  error
	}
	s := a.snapshot()
	rs := make([]resolved, len(pairs))
	for i, pr := range pairs {
		var r resolved
		r.p, r.err = s.resolve(a.mod.File(), pr.P)
		if r.err == nil {
			r.q, r.err = s.resolve(a.mod.File(), pr.Q)
		}
		rs[i] = r
	}
	return func(yield func(Verdict) bool) {
		for i, pr := range pairs {
			if err := ctx.Err(); err != nil {
				yield(Verdict{Pair: pr, Err: err})
				return
			}
			v := Verdict{Pair: pr, Err: rs[i].err}
			if v.Err == nil {
				v.MayAlias = s.oracle.MayAlias(rs[i].p, rs[i].q)
			}
			if !yield(v) {
				return
			}
		}
	}
}

// AddressTaken reports whether the program may take the address of the
// location the named path denotes (Table 2's AddressTaken predicate,
// widened under the open-world assumption).
func (a *Analyzer) AddressTaken(path string) (bool, error) {
	s := a.snapshot()
	ap, err := s.resolve(a.mod.File(), path)
	if err != nil {
		return false, err
	}
	return s.oracle.AddressTaken(ap), nil
}

// ---------------------------------------------------------------------------
// Analysis artifacts

// PairCounts are the paper's Table 5 static metrics.
type PairCounts struct {
	// References counts the program's static heap memory references.
	References int
	// Local counts intraprocedural may-alias pairs.
	Local int
	// Global counts may-alias pairs over all references in the program.
	Global int
}

// CountPairs computes the static alias-pair metrics under this
// analyzer's oracle. At flow-insensitive levels the partition oracle
// answers with class-size arithmetic instead of a quadratic query
// sweep; the flow-sensitive levels fan per-procedure work across a
// worker pool. Safe to call concurrently with queries.
func (a *Analyzer) CountPairs() PairCounts {
	pc := alias.CountPairs(a.prog, a.snapshot().oracle)
	return PairCounts{References: pc.References, Local: pc.Local, Global: pc.Global}
}

// ReferenceTypes returns the names of the module's reference types in
// universe order.
func (a *Analyzer) ReferenceTypes() []string {
	var out []string
	for _, t := range a.prog.Universe.ReferenceTypes() {
		out = append(out, t.String())
	}
	return out
}

// TypeRefs returns the analysis' TypeRefsTable by name: for each
// reference type with a table row, the sorted names of the types a
// reference of that type may point at. Levels below SMFieldTypeRefs
// maintain no table (raw subtype sets are used) and return an empty
// map.
func (a *Analyzer) TypeRefs() map[string][]string {
	o := a.snapshot().oracle
	out := make(map[string][]string)
	for _, t := range a.prog.Universe.ReferenceTypes() {
		refs := o.TypeRefs(t)
		if refs == nil {
			continue
		}
		var names []string
		for _, id := range refs.IDs() {
			names = append(names, a.prog.Universe.ByID(id).String())
		}
		sort.Strings(names)
		out[t.String()] = names
	}
	return out
}

// ---------------------------------------------------------------------------
// Execution, simulation, and the limit study

// RunStats profiles one execution.
type RunStats struct {
	Instructions uint64
	HeapLoads    uint64 // loads through pointers (incl. dope-vector loads)
	DopeLoads    uint64 // subset of HeapLoads: implicit dope accesses
	OtherLoads   uint64 // stack and global-area loads
	HeapStores   uint64
	OtherStores  uint64
	Calls        uint64
	Allocs       uint64
}

// Run executes the analyzer's (optimized) program and returns its
// output and execution profile.
func (a *Analyzer) Run() (string, RunStats, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	in := interp.New(a.prog)
	out, err := in.Run()
	st := in.Stats()
	return out, RunStats{
		Instructions: st.Instructions,
		HeapLoads:    st.HeapLoads,
		DopeLoads:    st.DopeLoads,
		OtherLoads:   st.OtherLoads,
		HeapStores:   st.HeapStores,
		OtherStores:  st.OtherStores,
		Calls:        st.Calls,
		Allocs:       st.Allocs,
	}, err
}

// SimResult reports a simulated execution under the cache timing model.
type SimResult struct {
	Cycles       uint64
	Instructions uint64
	Loads        uint64
	LoadMisses   uint64
	Stores       uint64
	StoreMisses  uint64
}

// MissRate returns the load miss ratio.
func (r SimResult) MissRate() float64 {
	if r.Loads == 0 {
		return 0
	}
	return float64(r.LoadMisses) / float64(r.Loads)
}

// Simulate executes the program under the paper's cache timing model
// and returns the simulation result and program output.
func (a *Analyzer) Simulate() (SimResult, string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	res, out, err := sim.Run(a.prog, sim.DefaultConfig())
	return SimResult{
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		Loads:        res.Loads,
		LoadMisses:   res.LoadMisses,
		Stores:       res.Stores,
		StoreMisses:  res.StoreMisses,
	}, out, err
}

// CategoryCount is one slice of a LimitReport: how many dynamically
// redundant loads fall in the named Section 3.5 category.
type CategoryCount struct {
	Name  string
	Loads uint64
}

// LimitReport summarizes the dynamic redundant-load limit study.
type LimitReport struct {
	// HeapLoads is the number of dynamic heap loads.
	HeapLoads uint64
	// Redundant is the number of dynamically redundant heap loads.
	Redundant uint64
	// Categories splits Redundant by cause, in the paper's order
	// (Encapsulated, Conditional, Breakup, AliasFailure, Rest).
	Categories []CategoryCount
}

// LimitStudy executes the program while tracking the dynamic
// upper-bound of redundant loads (Section 3.5), classified by why each
// survived the optimizer. It returns the report and program output.
func (a *Analyzer) LimitStudy() (LimitReport, string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// The availability kills use the pass environment's summaries, so
	// an interprocedural Analyzer's limit study sees the narrowed call
	// effects (and plain configurations reuse the memoized CHA
	// summaries instead of recomputing them per study).
	rep, out, err := limit.Measure(a.prog, a.env.Oracle(), a.env.ModRef())
	lr := LimitReport{HeapLoads: rep.HeapLoads, Redundant: rep.Redundant}
	for c := limit.CatEncapsulated; c <= limit.CatRest; c++ {
		lr.Categories = append(lr.Categories, CategoryCount{Name: c.String(), Loads: rep.ByCategory[c]})
	}
	return lr, out, err
}

// ---------------------------------------------------------------------------
// IR inspection

// IR renders the whole lowered (and optimized) program.
func (a *Analyzer) IR() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.prog.String()
}

// MainIR renders only the module body's procedure — the usual place to
// look when demonstrating what a pass did to a hot loop.
func (a *Analyzer) MainIR() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.prog.Main.String()
}
