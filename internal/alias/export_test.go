package alias

import (
	"tbaa/internal/ir"
	"tbaa/internal/types"
)

// NewCaseOnly builds an Analysis with the partition oracle disabled, so
// every query runs the original case analysis. The differential tests
// pin the partition oracle's answers to this reference implementation.
func NewCaseOnly(prog *ir.Program, opts Options) *Analysis {
	return newAnalysis(prog, opts, false)
}

// FlowSet returns the allocated-type set the flow layer narrows v's
// value to at s, or nil when the refinement cannot speak for v.
func FlowSet(a *Analysis, v *ir.Var, s Site) types.Bitset {
	return a.flow.valueSet(v, s)
}

// Coverage reports whether the partition oracle assigns p an alias
// class, and whether the intern index holds p's canonical prefix chain
// with every prefix classified (vacuously true below two selectors).
// Together they mean MayAlias and StoreKills answer p without reaching
// the uncached case analysis.
func Coverage(a *Analysis, p *ir.AP) (classified, chained bool) {
	part := a.partition()
	classified = part.classOf(p) >= 0
	if len(p.Sels) < 2 {
		return classified, true
	}
	pre := a.apIdx.Prefixes(p)
	if pre == nil {
		return classified, false
	}
	for _, q := range pre {
		if part.classOf(q) < 0 {
			return classified, false
		}
	}
	return classified, true
}
