package alias

import (
	"fmt"

	"tbaa/internal/cfg"
	"tbaa/internal/ir"
	"tbaa/internal/types"
)

// This file keeps the map-keyed reaching-stores solver the slot layout
// in flow.go replaced, as a reference: states are Go maps keyed by
// variable and by the path's rendering, every block transfer clones its
// input, and every query site gets its own variable map. DiffFlowFacts
// checks the production facts against it.

type refState struct {
	vars  map[*ir.Var]types.Bitset
	paths map[string]refPathFact
}

type refPathFact struct {
	ap  *ir.AP
	set types.Bitset
}

// DiffFlowFacts solves every procedure of a's program with both
// solvers and reports the first query site and tracked variable whose
// fact differs in presence or in set. A nil error also covers
// analyses without a flow layer.
func DiffFlowFacts(a *Analysis) error {
	f := a.flow
	if f == nil {
		return nil
	}
	for _, p := range a.prog.Procs {
		ref := refSolve(f, p)
		pf := f.factsFor(p)
		vars := refTrackedVars(f, p)
		for _, b := range p.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if !querySite(in.Op) {
					continue
				}
				for _, v := range vars {
					want, wantOK := ref[in][v]
					got, gotOK := pf.fact(in, v)
					if wantOK != gotOK || wantOK && !want.Equal(got) {
						return fmt.Errorf("%s block %d instr %d (%v): %s is %v (present %v), reference %v (present %v)",
							p.Name, b.ID, i, in.Op, v.Name, got.IDs(), gotOK, want.IDs(), wantOK)
					}
				}
			}
		}
	}
	return nil
}

// refTrackedVars lists every variable either solver can hold a fact
// for in p: its tracked parameters and locals, the tracked globals, and
// every tracked variable an OpSetVar in p writes.
func refTrackedVars(f *flow, p *ir.Proc) []*ir.Var {
	seen := map[*ir.Var]bool{}
	var out []*ir.Var
	add := func(v *ir.Var) {
		if f.tracked(v) && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range p.AllVars() {
		add(v)
	}
	for _, v := range f.a.prog.Globals {
		add(v)
	}
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == ir.OpSetVar {
				add(in.Var)
			}
		}
	}
	return out
}

// refSolve runs the forward dataflow over p and snapshots the narrowed
// variable facts in force at every query site.
func refSolve(f *flow, p *ir.Proc) map[*ir.Instr]map[*ir.Var]types.Bitset {
	at := make(map[*ir.Instr]map[*ir.Var]types.Bitset)
	entry := func() refState { return refEntryState(f, p) }
	transfer := func(b *ir.Block, in refState) refState {
		st := in.clone()
		refTransferBlock(f, b, st, nil)
		return st
	}
	ins := refForwardSolve(p, entry, refJoinStates, transfer, refStatesEqual)
	for _, b := range p.Blocks {
		in, ok := ins[b]
		if !ok {
			continue
		}
		refTransferBlock(f, b, in.clone(), at)
	}
	return at
}

// refForwardSolve is the generic iterative solver: every round visits
// every reachable block in reverse postorder and re-transfers it;
// predecessors with no computed exit state are skipped by the join.
func refForwardSolve[S any](p *ir.Proc, entry func() S, join func(preds []S) S, transfer func(b *ir.Block, in S) S, equal func(a, b S) bool) map[*ir.Block]S {
	rpo := cfg.ReversePostorder(p)
	ins := make(map[*ir.Block]S, len(rpo))
	outs := make(map[*ir.Block]S, len(rpo))
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			var in S
			if b == p.Entry {
				in = entry()
			} else {
				var preds []S
				for _, pred := range b.Preds {
					if po, ok := outs[pred]; ok {
						preds = append(preds, po)
					}
				}
				if len(preds) == 0 {
					continue
				}
				in = join(preds)
			}
			ins[b] = in
			out := transfer(b, in)
			old, ok := outs[b]
			if !ok || !equal(old, out) {
				outs[b] = out
				changed = true
			}
		}
	}
	return ins
}

func refEntryState(f *flow, p *ir.Proc) refState {
	st := refState{vars: map[*ir.Var]types.Bitset{}, paths: map[string]refPathFact{}}
	for _, v := range p.Locals {
		if f.tracked(v) {
			st.vars[v] = types.Bitset{}
		}
	}
	if p == f.a.prog.Main {
		for _, v := range f.a.prog.Globals {
			if f.tracked(v) {
				st.vars[v] = types.Bitset{}
			}
		}
	}
	return st
}

func (st refState) clone() refState {
	out := refState{
		vars:  make(map[*ir.Var]types.Bitset, len(st.vars)),
		paths: make(map[string]refPathFact, len(st.paths)),
	}
	for v, s := range st.vars {
		out.vars[v] = s
	}
	for k, fct := range st.paths {
		out.paths[k] = fct
	}
	return out
}

func refJoinStates(preds []refState) refState {
	out := refState{vars: map[*ir.Var]types.Bitset{}, paths: map[string]refPathFact{}}
	for v, s := range preds[0].vars {
		merged, owned, ok := s, false, true
		for _, ps := range preds[1:] {
			other, has := ps.vars[v]
			if !has {
				ok = false
				break
			}
			merged, owned = unionShared(merged, owned, other)
		}
		if ok {
			out.vars[v] = merged
		}
	}
	for k, fct := range preds[0].paths {
		merged, owned, ok := fct.set, false, true
		for _, ps := range preds[1:] {
			other, has := ps.paths[k]
			if !has || !other.ap.Equal(fct.ap) {
				ok = false
				break
			}
			merged, owned = unionShared(merged, owned, other.set)
		}
		if ok {
			out.paths[k] = refPathFact{ap: fct.ap, set: merged}
		}
	}
	return out
}

func refStatesEqual(a, b refState) bool {
	if len(a.vars) != len(b.vars) || len(a.paths) != len(b.paths) {
		return false
	}
	for v, s := range a.vars {
		o, ok := b.vars[v]
		if !ok || !s.Equal(o) {
			return false
		}
	}
	for k, fct := range a.paths {
		o, ok := b.paths[k]
		if !ok || !fct.set.Equal(o.set) {
			return false
		}
	}
	return true
}

func refTransferBlock(f *flow, b *ir.Block, st refState, snap map[*ir.Instr]map[*ir.Var]types.Bitset) {
	regs := make(map[ir.Reg]types.Bitset)
	var shared map[*ir.Var]types.Bitset
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if snap != nil && querySite(in.Op) && len(st.vars) > 0 {
			if shared == nil {
				shared = make(map[*ir.Var]types.Bitset, len(st.vars))
				for v, s := range st.vars {
					shared[v] = s
				}
			}
			snap[in] = shared
		}
		if refTransferInstr(f, in, st, regs) {
			shared = nil
		}
	}
}

func refTransferInstr(f *flow, in *ir.Instr, st refState, regs map[ir.Reg]types.Bitset) bool {
	switch in.Op {
	case ir.OpNew, ir.OpNewArray:
		if f.row(in.Type) != nil {
			s := types.NewBitset(in.Type.ID() + 1)
			s.Add(in.Type.ID())
			regs[in.Dst] = s
		}
	case ir.OpCopy:
		if s := refOperandSet(f, in.Args[0], st, regs); s != nil {
			regs[in.Dst] = s
		}
	case ir.OpLoad, ir.OpLoadVarField:
		if in.AP != nil {
			if fct, ok := st.paths[in.AP.String()]; ok && fct.ap.Equal(in.AP) {
				regs[in.Dst] = fct.set
				return false
			}
		}
		if s := f.row(in.Type); s != nil {
			regs[in.Dst] = s
		}
	case ir.OpBuiltin:
		if s := f.row(in.Type); s != nil {
			regs[in.Dst] = s
		}
	case ir.OpSetVar:
		if in.Var != nil {
			for k, fct := range st.paths {
				if fct.ap.UsesVar(in.Var) {
					delete(st.paths, k)
				}
			}
		}
		if f.tracked(in.Var) {
			if s := refOperandSet(f, in.Args[0], st, regs); s != nil {
				st.vars[in.Var] = s
			} else {
				delete(st.vars, in.Var)
			}
			return true
		}
	case ir.OpStore:
		if in.Sel.Kind == ir.SelDeref || in.AP == nil || in.AP.Root.ByRef {
			at := f.a.prog.AddressTakenVars
			for v := range st.vars {
				if at[v] {
					delete(st.vars, v)
				}
			}
			clear(st.paths)
			return true
		}
		refStoreFact(f, in, st, regs)
	case ir.OpStoreVarField:
		if in.AP != nil {
			refStoreFact(f, in, st, regs)
		} else {
			clear(st.paths)
		}
	case ir.OpCall, ir.OpMethodCall:
		at := f.a.prog.AddressTakenVars
		if cs := f.a.summaries; cs != nil {
			for v := range st.vars {
				if (v.Kind == ir.GlobalVar || at[v]) && cs.CallMayRebind(in, v) {
					delete(st.vars, v)
				}
			}
			for k, fct := range st.paths {
				if cs.CallKillsPath(in, fct.ap) {
					delete(st.paths, k)
				}
			}
		} else {
			for v := range st.vars {
				if v.Kind == ir.GlobalVar || at[v] {
					delete(st.vars, v)
				}
			}
			clear(st.paths)
		}
		if s := f.row(in.Type); s != nil {
			regs[in.Dst] = s
		}
		return true
	}
	return false
}

func refStoreFact(f *flow, in *ir.Instr, st refState, regs map[ir.Reg]types.Bitset) {
	for k, fct := range st.paths {
		if f.a.StoreKills(fct.ap, Site{}, in.AP, Site{}) {
			delete(st.paths, k)
		}
	}
	if in.AP.Root.ByRef {
		return
	}
	for i := range in.AP.Sels {
		if idx := in.AP.Sels[i].Index; idx.Kind == ir.RegOp {
			return
		}
	}
	if s := refOperandSet(f, in.Args[0], st, regs); s != nil {
		st.paths[in.AP.String()] = refPathFact{ap: in.AP, set: s}
	}
}

func refOperandSet(f *flow, o ir.Operand, st refState, regs map[ir.Reg]types.Bitset) types.Bitset {
	switch o.Kind {
	case ir.VarOp:
		if !f.tracked(o.Var) {
			return nil
		}
		if s, ok := st.vars[o.Var]; ok {
			return s
		}
		return f.row(o.Var.Type)
	case ir.RegOp:
		return regs[o.Reg]
	case ir.ConstOp:
		if o.Const.Kind == ir.NilConst {
			return types.Bitset{}
		}
	}
	return nil
}
