// Invocation-freshness analysis: which stores can only write objects
// allocated during the enclosing procedure's own invocation?
//
// A store into such an object is invisible to callers: every location
// a caller's availability dataflow (or flow-sensitive fact) describes
// at a call site existed before the call, and an object created during
// the call — by the callee or anything it invokes — cannot be one of
// them, no matter how far it escapes afterwards. Dropping these "fresh
// mods" from the caller-visible summary is what lets a call to a
// constructor-style callee (allocate, initialize, link, return) keep
// the caller's cached loads alive, including across recursion: a
// recursive tree builder's stores all target nodes of the subtree it
// is creating, never the nodes its caller already holds.
//
// The analysis is a per-procedure, flow-insensitive greatest fixpoint
// over a one-bit "region" lattice (region = allocated during this
// invocation), computed bottom-up over call-graph SCCs so that
// "returns a fresh object" facts flow from callees to callers, with
// the usual coinductive reading for recursion: a same-SCC call's
// result counts as region while the optimistic assumption survives,
// which is sound because any concrete returned object is allocated
// during some inner invocation — hence during the outer one.
//
//   - A register is region if defined by NEW, by a call whose every
//     possible callee returns fresh, or by a copy of a region operand.
//   - A local variable is region if its slot address never escapes
//     (not a formal, not by-ref, not in AddressTakenVars) and every
//     assignment to it in the procedure is region or NIL (a variable
//     that traps instead of storing writes nothing).
//   - Loads are never region: a value read back out of the heap may be
//     any object that ever flowed in, which this analysis does not
//     track (no load-closure).
//
// A store is then fresh when the object it writes is the one its
// region root directly references: root.f / root^ / root[i] (one
// selector), or the dope-expanded element block root{elems}[i] — the
// same root-owned shapes the flow-sensitive layer trusts. Deeper paths
// go through a load and stay caller-visible.
package modref

import (
	"tbaa/internal/ir"
)

// computeFreshness fills mr.freshStores, walking SCCs bottom-up.
func (mr *ModRef) computeFreshness(sccs [][]*ir.Proc) {
	mr.freshStores = make(map[*ir.Proc]map[*ir.Instr]bool)
	mr.returnsFresh = make(map[*ir.Proc]bool)
	for _, scc := range sccs {
		mr.freshnessSCC(scc)
	}
}

// freshnessSCC runs the freshness fixpoint for one SCC, assuming every
// callee SCC's returnsFresh facts are already final (bottom-up order).
func (mr *ModRef) freshnessSCC(scc []*ir.Proc) {
	// Optimistic: every member returns fresh until a return value
	// proves otherwise; iterate the SCC to its greatest fixpoint.
	// The last iteration (the one that changes nothing) leaves
	// every member's region state computed under the final flags,
	// so the store-marking pass below reuses it.
	for _, p := range scc {
		mr.returnsFresh[p] = true
	}
	region := make(map[*ir.Proc]regionState, len(scc))
	for changed := true; changed; {
		changed = false
		for _, p := range scc {
			st := mr.regionValues(p)
			region[p] = st
			if !mr.returnsFresh[p] {
				continue
			}
			for _, b := range p.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Op == ir.OpReturn && len(in.Args) > 0 && !st.operand(in.Args[0]) {
						mr.returnsFresh[p] = false
						changed = true
					}
				}
			}
		}
	}
	for _, p := range scc {
		st := region[p]
		var fresh map[*ir.Instr]bool
		for _, b := range p.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.OpStore && in.AP != nil && st.freshStore(in.AP) {
					if fresh == nil {
						fresh = make(map[*ir.Instr]bool)
					}
					fresh[in] = true
				}
			}
		}
		if fresh != nil {
			mr.freshStores[p] = fresh
		}
	}
}

// ReturnsFresh reports whether every value p returns is provably
// allocated during p's own invocation. Always false outside RTA mode.
func (mr *ModRef) ReturnsFresh(p *ir.Proc) bool { return mr.returnsFresh[p] }

// regionState is the per-procedure fixpoint result: which variables
// and registers can only hold invocation-fresh objects (or NIL).
type regionState struct {
	vars map[*ir.Var]bool
	regs map[ir.Reg]bool
}

// regionValues computes p's region state to a greatest fixpoint:
// candidates start region and are downgraded by any assignment of a
// non-region value, until stable.
func (mr *ModRef) regionValues(p *ir.Proc) regionState {
	st := regionState{vars: make(map[*ir.Var]bool), regs: make(map[ir.Reg]bool)}
	at := mr.prog.AddressTakenVars
	for _, v := range p.Locals {
		if !v.ByRef && !at[v] {
			st.vars[v] = true
		}
	}
	for r := 0; r < p.NumRegs; r++ {
		st.regs[ir.Reg(r)] = true
	}
	for changed := true; changed; {
		changed = false
		for _, b := range p.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpNew, ir.OpNewArray:
					// Region by definition.
				case ir.OpCopy:
					if st.regs[in.Dst] && !st.operand(in.Args[0]) {
						st.regs[in.Dst] = false
						changed = true
					}
				case ir.OpCall, ir.OpMethodCall:
					if in.Dst != ir.NoReg && st.regs[in.Dst] && !mr.callReturnsFresh(in) {
						st.regs[in.Dst] = false
						changed = true
					}
				case ir.OpSetVar:
					if st.vars[in.Var] && !st.operand(in.Args[0]) {
						st.vars[in.Var] = false
						changed = true
					}
				default:
					// Loads, builtins, arithmetic, and constants other
					// than NIL produce non-region values.
					if d := in.DefinedReg(); d != ir.NoReg && st.regs[d] {
						st.regs[d] = false
						changed = true
					}
				}
			}
		}
	}
	return st
}

// callReturnsFresh reports whether every procedure the call can invoke
// returns a fresh object.
func (mr *ModRef) callReturnsFresh(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpCall:
		callee := mr.prog.ProcByName[in.Callee]
		return callee != nil && mr.returnsFresh[callee]
	case ir.OpMethodCall:
		targets := mr.Dispatch(in)
		if len(targets) == 0 {
			return false
		}
		for _, t := range targets {
			if !mr.returnsFresh[t] {
				return false
			}
		}
		return true
	}
	return false
}

// operand reports whether an operand can only be an invocation-fresh
// object or NIL. Scalar operands answer true vacuously — they are
// never the base object of a heap store and never weaken a reference
// variable (assignments are type-checked).
func (st regionState) operand(o ir.Operand) bool {
	switch o.Kind {
	case ir.ConstOp:
		return true // NIL writes nothing when stored through; scalars moot
	case ir.VarOp:
		return st.vars[o.Var]
	case ir.RegOp:
		return st.regs[o.Reg]
	}
	return false
}

// freshStore reports whether a store to ap writes an object its region
// root directly references: one selector off the root, or the
// root-owned open-array element block root{elems}[i]. Deeper prefixes
// travel through loads, which the region lattice does not track.
func (st regionState) freshStore(ap *ir.AP) bool {
	if !st.vars[ap.Root] {
		return false
	}
	switch len(ap.Sels) {
	case 1:
		return true
	case 2:
		return ap.Sels[0].Kind == ir.SelDopeElems && ap.Sels[1].Kind == ir.SelIndex
	}
	return false
}
