// Package limit implements the paper's upper-bound study (Section 3.5):
// an ATOM-style dynamic analysis that finds loads that are redundant at
// run time — two consecutive loads of the same address that see the same
// value within the same procedure activation — and classifies the ones
// remaining after optimization into the paper's five categories
// (Figure 10): Encapsulation, Conditional, Breakup, AliasFailure, Rest.
// Conditional and AliasFailure come from the optimizer's own
// available-load dataflow (opt.Avail), run three ways: must, may, and
// must with only variable writes killing.
package limit

import (
	"tbaa/internal/alias"
	"tbaa/internal/interp"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
	"tbaa/internal/opt"
)

// Category classifies why a dynamically redundant load survived RLE.
type Category int

// The five categories of Section 3.5.
const (
	// CatEncapsulated: the load is implicit in the high-level
	// representation (open-array dope-vector accesses).
	CatEncapsulated Category = iota
	// CatConditional: the expression was only partially redundant
	// (available on some but not all paths); PRE would catch it.
	CatConditional
	// CatBreakup: the value flowed through a different access path
	// (no copy propagation in the optimizer).
	CatBreakup
	// CatAliasFailure: the analysis could not disambiguate two memory
	// references that never aliased dynamically.
	CatAliasFailure
	// CatRest: everything else (e.g. stores that rewrote the same value,
	// or kills that were dynamically real).
	CatRest
	numCategories
)

func (c Category) String() string {
	switch c {
	case CatEncapsulated:
		return "Encapsulated"
	case CatConditional:
		return "Conditional"
	case CatBreakup:
		return "Breakup"
	case CatAliasFailure:
		return "AliasFailure"
	case CatRest:
		return "Rest"
	}
	return "?"
}

// Report summarizes one measured execution.
type Report struct {
	// HeapLoads is the number of dynamic heap loads (incl. dope loads).
	HeapLoads uint64
	// Redundant is the number of dynamically redundant heap loads.
	Redundant uint64
	// ByCategory splits Redundant by cause (meaningful after RLE).
	ByCategory [numCategories]uint64
}

// Fraction returns Redundant as a fraction of the given baseline load
// count (the paper normalizes to the *original* program's heap loads).
func (r Report) Fraction(baselineLoads uint64) float64 {
	if baselineLoads == 0 {
		return 0
	}
	return float64(r.Redundant) / float64(baselineLoads)
}

// Analyzer observes one execution and produces a Report.
type Analyzer struct {
	rep   Report
	seq   uint64
	loads map[uint64]lastLoad
	store map[uint64]uint64 // addr -> seq of last store
	flags map[*ir.Instr]availFlags
}

type lastLoad struct {
	val   uint64
	act   uint64
	instr *ir.Instr
	seq   uint64
}

// NewAnalyzer builds an analyzer. The oracle and mod-ref summaries are
// used to precompute, for every remaining load, whether its access path
// was fully available (should not happen after RLE), partially available
// (Conditional), or killed — and whether the kill was a memory kill
// (candidate AliasFailure) or a variable kill (Rest). Pass a nil oracle
// to skip classification (e.g. when measuring the original program).
func NewAnalyzer(prog *ir.Program, o alias.Oracle, mr *modref.ModRef) *Analyzer {
	a := &Analyzer{
		loads: make(map[uint64]lastLoad),
		store: make(map[uint64]uint64),
	}
	if o != nil && mr != nil {
		a.flags = computeAvailFlags(prog, o, mr)
	}
	return a
}

// Listener returns interpreter callbacks feeding the analyzer.
func (a *Analyzer) Listener() interp.Listener {
	return interp.Listener{Mem: func(ev *interp.MemEvent) { a.observe(ev) }}
}

func (a *Analyzer) observe(ev *interp.MemEvent) {
	if !ev.Heap {
		return
	}
	a.seq++
	if !ev.Load {
		a.store[ev.Addr] = a.seq
		return
	}
	a.rep.HeapLoads++
	prev, ok := a.loads[ev.Addr]
	if ok && prev.val == ev.ValueHash && prev.act == ev.Activation {
		a.rep.Redundant++
		a.classify(ev, prev)
	}
	a.loads[ev.Addr] = lastLoad{val: ev.ValueHash, act: ev.Activation,
		instr: ev.Instr, seq: a.seq}
}

func (a *Analyzer) classify(ev *interp.MemEvent, prev lastLoad) {
	if a.flags == nil {
		return
	}
	cur := ev.Instr
	cat := CatRest
	switch {
	case cur.AP != nil && cur.AP.IsDope():
		cat = CatEncapsulated
	case prev.instr.AP == nil || cur.AP == nil:
		cat = CatRest
	case !prev.instr.AP.Equal(cur.AP):
		// The same address was reached through a different source
		// expression; copy propagation would be needed to connect them.
		cat = CatBreakup
	default:
		f := a.flags[cur]
		storedBetween := a.store[ev.Addr] > prev.seq
		switch {
		case f[may] && !f[must]:
			cat = CatConditional
		case !f[may] && f[mustNoMemKills] && !storedBetween:
			// Every static path killed the expression via a may-alias
			// store or call, yet no dynamic store touched the address:
			// the alias analysis failed to disambiguate.
			cat = CatAliasFailure
		default:
			cat = CatRest
		}
	}
	a.rep.ByCategory[cat]++
}

// availFlags records whether a load's access path is available just
// before it under each of the three runs of the available-load dataflow
// (opt.Avail) that classify it.
type availFlags [3]bool

const (
	must = iota // on every path
	may         // on at least one path
	// on every path once only variable writes kill; when this holds but
	// must does not, a store or call was the cause
	mustNoMemKills
)

// computeAvailFlags runs the three dataflows over every procedure. The
// kills use the zero Site: the study measures the bound left by the
// flow-insensitive analysis, not its refinement.
func computeAvailFlags(prog *ir.Program, o alias.Oracle, mr *modref.ModRef) map[*ir.Instr]availFlags {
	flags := make(map[*ir.Instr]availFlags)
	record := func(run int) func(*ir.Block, int, int32, bool) {
		return func(b *ir.Block, i int, _ int32, avail bool) {
			in := &b.Instrs[i]
			f := flags[in]
			f[run] = avail
			flags[in] = f
		}
	}
	for _, p := range prog.Procs {
		a := opt.NewAvail(prog, p, o, mr, false)
		a.Solve(opt.Must, true).Loads(record(must))
		a.Solve(opt.May, true).Loads(record(may))
		a.Solve(opt.Must, false).Loads(record(mustNoMemKills))
	}
	return flags
}

// Report returns the accumulated measurements.
func (a *Analyzer) Report() Report { return a.rep }

// Measure runs the program under the analyzer and returns the report.
// Classification is enabled when an oracle and summaries are supplied.
func Measure(prog *ir.Program, o alias.Oracle, mr *modref.ModRef) (Report, string, error) {
	a := NewAnalyzer(prog, o, mr)
	in := interp.New(prog)
	in.SetListener(a.Listener())
	out, err := in.Run()
	return a.Report(), out, err
}
