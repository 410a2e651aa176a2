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
