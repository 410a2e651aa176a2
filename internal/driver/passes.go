package driver

import (
	"fmt"

	"tbaa/internal/alias"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
	"tbaa/internal/opt"
	"tbaa/internal/types"
)

// PassResult reports what one optimization pass did. Fields irrelevant
// to a pass stay zero (e.g. RLE never devirtualizes).
type PassResult struct {
	// Pass is the name of the pass that produced this result.
	Pass string
	// Devirtualized and Inlined count method-invocation resolution work.
	Devirtualized int
	Inlined       int
	// Hoisted and Eliminated count loads removed by RLE (and, for PRE,
	// Eliminated counts the post-insertion CSE removals).
	Hoisted    int
	Eliminated int
	// Inserted counts PRE compensation loads.
	Inserted int
	// PerProc breaks load removals down by procedure name.
	PerProc map[string]int
}

// Removed returns the total statically removed loads (the Table 6 metric).
func (r PassResult) Removed() int { return r.Hoisted + r.Eliminated }

// Pass is one step of the optimization pipeline. Passes mutate the
// program in the PassEnv; passes that change program structure must
// call Invalidate so later passes see rebuilt analysis facts.
type Pass interface {
	Name() string
	Run(env *PassEnv) (PassResult, error)
}

// PassEnv carries the program being optimized plus lazily built,
// memoized analysis state shared by the passes: the alias oracle and
// the mod-ref summaries. Building both lazily keeps configurations that
// never query them (e.g. an unoptimized baseline) free of their cost.
type PassEnv struct {
	Prog   *ir.Program
	Opts   alias.Options
	oracle *alias.Analysis
	mr     *modref.ModRef

	// builtClock is the program mutation clock (ir.Program.MutClock) the
	// current handles are consistent with, advanced whenever a handle is
	// (re)built. Mutations that are not followed by Invalidate — RLE and
	// PRE splice instructions that reuse interned access paths and drop
	// their own flow facts — leave the handles exact by contract, so the
	// clock of the latest build stands for both.
	builtClock uint64
	// prevOracle/prevMR/prevClock stash the generation retired by the
	// last Invalidate: the seed of the incremental rebuild. prevClock is
	// the mutation clock that generation was consistent with, so
	// Prog.DirtySince(prevClock) is exactly the set of procedures it has
	// not seen.
	prevOracle *alias.Analysis
	prevMR     *modref.ModRef
	prevClock  uint64
}

// NewPassEnv validates opts and wraps prog for a pass pipeline.
func NewPassEnv(prog *ir.Program, opts alias.Options) (*PassEnv, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &PassEnv{Prog: prog, Opts: opts}, nil
}

// Oracle returns the alias analysis for the current program state,
// building it on first use. At LevelIPTypeRefs the interprocedural
// mod-ref summaries are wired into the oracle's flow-sensitive
// call-kill rule before the oracle is handed out, so site-aware answers
// never depend on whether ModRef was forced first.
//
// After an Invalidate the build is incremental when it can be: the
// retired generation plus the set of procedures mutated since it was
// built seed alias.Update (and, interprocedurally, modref.Update), and
// only when the delta preconditions fail is the analysis rebuilt from
// scratch. Both roads produce identical verdicts.
func (e *PassEnv) Oracle() *alias.Analysis {
	if e.oracle == nil {
		if !e.updateAnalyses() {
			e.oracle = alias.New(e.Prog, e.Opts)
			if e.Opts.Level == alias.LevelIPTypeRefs {
				e.oracle.SetCallSummaries(ipSummaries{
					mr: e.ModRef(),
					o:  e.oracle,
					at: e.Prog.AddressTakenVars,
				})
			}
		}
		e.builtClock = e.Prog.MutClock()
	}
	return e.oracle
}

// updateAnalyses attempts the incremental rebuild from the stashed
// generation. On success it installs the new oracle (and, at
// LevelIPTypeRefs, the new summaries, invalidating the flow facts
// of every procedure whose callee summaries changed) and reports true.
// Any failed precondition reports false: the caller builds from
// scratch, which is always exact.
func (e *PassEnv) updateAnalyses() bool {
	if e.prevOracle == nil {
		return false
	}
	// An empty dirty set after an Invalidate means either nothing
	// changed or a mutation went unstamped; the full rebuild is the
	// only answer that is right in both cases.
	dirty := e.Prog.DirtySince(e.prevClock)
	if len(dirty) == 0 {
		return false
	}
	o := alias.Update(e.prevOracle, dirty)
	if o == nil {
		return false
	}
	if e.Opts.Level == alias.LevelIPTypeRefs {
		cfg := modref.Config{
			RTA:       true,
			OpenWorld: e.Opts.OpenWorld,
			Refine:    RefineFromOracle(o),
		}
		mr, consumers := modref.Update(e.prevMR, cfg, dirty)
		if mr == nil {
			// The alias delta stands — nothing in it depends on the
			// summaries — but the summaries must be rebuilt from scratch,
			// and every carried-over flow fact consulted the old ones
			// through CallEffects, so drop them all.
			mr = modref.ComputeWith(e.Prog, cfg)
			for _, p := range e.Prog.Procs {
				alias.InvalidateFlow(o, p)
			}
		} else {
			for _, p := range consumers {
				alias.InvalidateFlow(o, p)
			}
		}
		e.mr = mr
		o.SetCallSummaries(ipSummaries{mr: mr, o: o, at: e.Prog.AddressTakenVars})
	}
	e.oracle = o
	return true
}

// ModRef returns the mod-ref summaries, computing them on first use:
// CHA-cone summaries by default, RTA-call-graph SCC summaries (refined
// by the oracle's TypeRefsTable) at LevelIPTypeRefs. Like
// Oracle, the build after an Invalidate is incremental when the delta
// preconditions hold.
func (e *PassEnv) ModRef() *modref.ModRef {
	if e.mr != nil {
		return e.mr
	}
	if e.Opts.Level == alias.LevelIPTypeRefs {
		o := e.Oracle()
		// Building the oracle wires the summaries in, constructing them
		// as a side effect — don't compute a second, diverging instance.
		if e.mr != nil {
			return e.mr
		}
		e.mr = modref.ComputeWith(e.Prog, modref.Config{
			RTA:       true,
			OpenWorld: e.Opts.OpenWorld,
			Refine:    RefineFromOracle(o),
		})
	} else {
		if e.prevMR != nil {
			if dirty := e.Prog.DirtySince(e.prevClock); len(dirty) > 0 {
				// CHA flow facts never consult the summaries (no call
				// summaries are wired at these levels), so the consumers
				// need no flow invalidation here.
				if mr, _ := modref.Update(e.prevMR, modref.Config{}, dirty); mr != nil {
					e.mr = mr
				}
			}
		}
		if e.mr == nil {
			e.mr = modref.Compute(e.Prog)
		}
	}
	e.builtClock = e.Prog.MutClock()
	return e.mr
}

// ipSummaries adapts the mod-ref summaries to the alias package's
// CallSummaries interface (alias cannot import modref — modref is its
// client). All queries are context-free (zero Sites): the flow layer
// consults them mid-solve, where a site-aware query would re-enter the
// solver.
type ipSummaries struct {
	mr *modref.ModRef
	o  alias.Oracle
	at map[*ir.Var]bool
}

func (s ipSummaries) CallKillsPath(call *ir.Instr, ap *ir.AP) bool {
	return modref.MayModify(s.mr.CallEffects(call), ap, alias.Site{}, s.o, s.at)
}

func (s ipSummaries) CallMayRebind(call *ir.Instr, v *ir.Var) bool {
	return s.mr.CallEffects(call).MayRebind(v, s.at)
}

// Invalidate retires the memoized analyses after a structural change
// (inlining creates new code); the next Oracle/ModRef call rebuilds.
//
// The retired generation is not discarded: it seeds an incremental
// rebuild. The next build asks the program which procedures were
// mutated since the generation was built (the per-procedure stamps
// written by ir.Program.MarkMutated) and re-analyzes only those — the
// alias layer re-interns and re-partitions only the dirty bodies'
// access paths and drops only their flow facts, the mod-ref layer
// re-summarizes only the call-graph components the dirty bodies can
// influence. When the delta preconditions fail — the dirty set is
// empty (a mutation may have gone unstamped), a global fact table
// grew, the RTA instantiated set changed — the rebuild is from
// scratch instead. Both roads yield byte-identical verdicts, so a bug
// in dirty tracking can only cost performance (an unnecessary full
// rebuild or an oversized delta), never soundness.
func (e *PassEnv) Invalidate() {
	if e.oracle != nil || e.mr != nil {
		e.prevOracle, e.prevMR, e.prevClock = e.oracle, e.mr, e.builtClock
	}
	e.oracle, e.mr = nil, nil
}

// RunPasses runs the pipeline in order and collects per-pass results.
// It stops at the first failing pass.
func RunPasses(env *PassEnv, passes ...Pass) ([]PassResult, error) {
	results := make([]PassResult, 0, len(passes))
	for _, p := range passes {
		r, err := p.Run(env)
		if err != nil {
			return results, fmt.Errorf("pass %s: %w", p.Name(), err)
		}
		r.Pass = p.Name()
		results = append(results, r)
	}
	return results, nil
}

// RLEPass is redundant load elimination (Section 3.4.1): loop-invariant
// load motion plus available-load CSE, killed by the alias oracle.
type RLEPass struct{}

// Name implements Pass.
func (RLEPass) Name() string { return "rle" }

// Run implements Pass.
func (RLEPass) Run(e *PassEnv) (PassResult, error) {
	res := opt.RLE(e.Prog, e.Oracle(), e.ModRef())
	return PassResult{Hoisted: res.Hoisted, Eliminated: res.Eliminated, PerProc: res.PerProc}, nil
}

// PREPass is partial redundancy elimination of memory expressions (the
// paper's future work); it normally runs after RLEPass.
type PREPass struct{}

// Name implements Pass.
func (PREPass) Name() string { return "pre" }

// Run implements Pass.
func (PREPass) Run(e *PassEnv) (PassResult, error) {
	res := opt.PRE(e.Prog, e.Oracle(), e.ModRef())
	return PassResult{Inserted: res.Inserted, Eliminated: res.Eliminated}, nil
}

// DevirtPass resolves method invocations alone: devirtualization
// refined by the oracle's TypeRefsTable (Section 3.7), without the
// inlining half of MinvInlinePass. It reports its work in Devirtualized
// and invalidates the analysis state — rewritten receivers change the
// dispatch sets mod-ref summaries are built from.
type DevirtPass struct{}

// Name implements Pass.
func (DevirtPass) Name() string { return "devirt" }

// Run implements Pass.
func (DevirtPass) Run(e *PassEnv) (PassResult, error) {
	nd := opt.Devirtualize(e.Prog, RefineFromOracle(e.Oracle()))
	if nd > 0 {
		e.Invalidate() // zero resolutions leave the program untouched
	}
	return PassResult{Devirtualized: nd}, nil
}

// RefineFromOracle adapts the oracle's TypeRefsTable to the
// receiver-narrowing callback Devirtualize and the RTA mod-ref
// summaries take (the artifact warm start hands it a decoded oracle).
func RefineFromOracle(a *alias.Analysis) func(o *types.Object) []int {
	return func(o *types.Object) []int {
		refs := a.TypeRefs(o)
		if refs == nil {
			return nil
		}
		return refs.IDs()
	}
}

// MinvInlinePass resolves method invocations (devirtualization refined
// by the oracle's TypeRefsTable) and inlines small procedures (Section
// 3.7) as one fused pipeline step. It invalidates the analysis state:
// inlining creates new code (including freshly address-taken cloned
// locals), so the next Oracle() call rebuilds the Analysis — the
// field-indexed AddressTaken owner tables, the TypeRefsTable, and the
// partition, incrementally through alias.Update when no global fact
// table grew — and the next ModRef() recomputes summaries. Dropping
// just the handles is enough because both are built from Prog on first
// use and hold no state that survives Invalidate.
type MinvInlinePass struct{}

// Name implements Pass.
func (MinvInlinePass) Name() string { return "minv+inline" }

// Run implements Pass.
func (MinvInlinePass) Run(e *PassEnv) (PassResult, error) {
	nd := opt.Devirtualize(e.Prog, RefineFromOracle(e.Oracle()))
	ni := opt.Inline(e.Prog)
	if nd > 0 || ni > 0 {
		e.Invalidate() // zero resolutions and expansions leave the program untouched
	}
	return PassResult{Devirtualized: nd, Inlined: ni}, nil
}
