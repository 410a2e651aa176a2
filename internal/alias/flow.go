package alias

import (
	"sync"

	"tbaa/internal/cfg"
	"tbaa/internal/ir"
	"tbaa/internal/types"
)

// This file implements the FSTypeRefs refinement: an intraprocedural
// flow-sensitive reaching-stores analysis layered on the
// SMFieldTypeRefs TypeRefsTable. Per statement it tracks
//
//   - for every pointer variable, the set of allocated types its value
//     may reference at that statement (NEW(T) generates exactly {T},
//     assignments copy sets, calls and stores through locations kill),
//   - for every stored-to access path, the set the stored value may
//     reference (killed by any may-aliasing store, call, or write to a
//     variable the path mentions), so a later load of the same path
//     re-narrows the destination — value flow through the heap.
//
// Site-aware queries (MayAliasAt) then prove two access paths
// non-aliased when the objects they select through are of provably
// disjoint allocated types, even though the flow-insensitive
// declared-type rows intersect.

// Site identifies the statement a flow-sensitive query refers to. The
// zero Site means "no statement context": the query degrades to the
// variable's declared-type row, i.e. the flow-insensitive answer.
type Site struct {
	Proc  *ir.Proc
	Instr *ir.Instr
}

// SiteOracle extends Oracle with statement-aware refinement. Oracles
// without flow information implement it by ignoring the sites.
type SiteOracle interface {
	Oracle
	// MayAliasAt reports whether p evaluated at ps and q evaluated at qs
	// may denote the same memory location. It never answers true where
	// MayAlias answers false: the refinement only removes pairs.
	MayAliasAt(p *ir.AP, ps Site, q *ir.AP, qs Site) bool
}

// MayAliasAt dispatches to o's site-aware refinement when it has one,
// and falls back to the context-free MayAlias otherwise. This is the
// one query entry point the optimizer's kill logic uses.
func MayAliasAt(o Oracle, p *ir.AP, ps Site, q *ir.AP, qs Site) bool {
	if so, ok := o.(SiteOracle); ok {
		return so.MayAliasAt(p, ps, q, qs)
	}
	return o.MayAlias(p, q)
}

// FlowInvalidator is implemented by oracles holding per-procedure flow
// facts that must be dropped after the procedure's code is rewritten.
type FlowInvalidator interface {
	InvalidateFlow(procs ...*ir.Proc)
}

// InvalidateFlow tells o (if it holds flow facts) that the given
// procedures were structurally modified; their facts rebuild on the
// next site-aware query. Passes call this after every mutation.
func InvalidateFlow(o Oracle, procs ...*ir.Proc) {
	if fi, ok := o.(FlowInvalidator); ok {
		fi.InvalidateFlow(procs...)
	}
}

// MayAliasAt implements SiteOracle: the context-free verdict, refined
// at LevelFSTypeRefs by the reaching-stores narrowing at the two sites.
func (a *Analysis) MayAliasAt(p *ir.AP, ps Site, q *ir.AP, qs Site) bool {
	if !a.MayAlias(p, q) {
		return false
	}
	if a.flow == nil {
		return true
	}
	return !a.flow.disjoint(p, ps, q, qs)
}

// StoreKills reports whether a store to dst invalidates the value of
// access path p: the store may overwrite the location p denotes (a
// content change), or the location of one of p's proper prefixes —
// rewriting which object the deeper path selects through, so p no
// longer names the location a cached value came from (a denotation
// change). The depth-0 prefix is p's root variable, which heap stores
// cannot touch (the optimizer's variable-write kills handle it). This
// is the one prefix-aware kill rule; the optimizer reaches it through
// modref.StoreKills and the flow layer's path-fact kills use it
// directly.
func (a *Analysis) StoreKills(p *ir.AP, ps Site, dst *ir.AP, qs Site) bool {
	if a.MayAliasAt(p, ps, dst, qs) {
		return true
	}
	for _, prefix := range a.prefixes(p) {
		if a.MayAliasAt(prefix, ps, dst, qs) {
			return true
		}
	}
	return false
}

// prefixes returns p's proper prefixes of selector length >= 1. Paths
// interned at construction answer from the index's canonical chains
// (shared, pointer-stable, and themselves interned, so the partition
// oracle serves the kill queries against them); anything else is built
// on demand behind a lock and cached per path pointer.
func (a *Analysis) prefixes(p *ir.AP) []*ir.AP {
	if len(p.Sels) < 2 {
		return nil
	}
	if a.apIdx != nil {
		if pre := a.apIdx.Prefixes(p); pre != nil {
			return pre
		}
	}
	a.prefixMu.RLock()
	pre, ok := a.prefixCache[p]
	a.prefixMu.RUnlock()
	if ok {
		return pre
	}
	for k := 1; k < len(p.Sels); k++ {
		pre = append(pre, &ir.AP{Root: p.Root, Sels: p.Sels[:k]})
	}
	a.prefixMu.Lock()
	if a.prefixCache == nil {
		a.prefixCache = make(map[*ir.AP][]*ir.AP)
	}
	a.prefixCache[p] = pre
	a.prefixMu.Unlock()
	return pre
}

// StoreKiller is the optional oracle extension modref.StoreKills
// dispatches to; Analysis implements it with prefix caching.
type StoreKiller interface {
	StoreKills(p *ir.AP, ps Site, dst *ir.AP, qs Site) bool
}

// InvalidateFlow implements FlowInvalidator.
func (a *Analysis) InvalidateFlow(procs ...*ir.Proc) {
	if a.flow == nil {
		return
	}
	a.flow.mu.Lock()
	for _, p := range procs {
		delete(a.flow.procs, p)
	}
	a.flow.mu.Unlock()
}

// ---------------------------------------------------------------------------
// The reaching-stores dataflow

// pathFact narrows the value last stored to one access path.
type pathFact struct {
	ap  *ir.AP
	set types.Bitset
}

// flowState is the per-program-point lattice element. vars maps tracked
// variables to the set of allocated types their current value may
// reference; paths maps stored-to access paths (keyed by their source
// rendering) to the same for their current content. Absent entries are
// top. A present empty set means "NIL on every path here". Bitsets are
// immutable once stored, so states, snapshots and TypeRefsTable rows
// share them freely: transfer installs new sets rather than editing
// old ones, and join keeps a predecessor's set unless a union grows it,
// and then unions into a clone.
type flowState struct {
	vars  map[*ir.Var]types.Bitset
	paths map[string]pathFact
}

// procFlow is the per-procedure result: for every memory-touching or
// call statement, the narrowed variable facts in force when it
// executes. Path facts are consumed during the dataflow (they feed
// loads) and are not needed at query time.
type procFlow struct {
	at map[*ir.Instr]map[*ir.Var]types.Bitset
}

type flow struct {
	a *Analysis
	// mu guards the procs map only; each entry's once serializes that
	// procedure's solve, so distinct procedures solve concurrently (the
	// parallel CountPairs prebuild fans them across a worker pool).
	mu    sync.Mutex
	procs map[*ir.Proc]*procEntry
}

// procEntry builds one procedure's facts at most once per program shape.
type procEntry struct {
	once sync.Once
	pf   *procFlow
}

func newFlow(a *Analysis) *flow {
	return &flow{a: a, procs: make(map[*ir.Proc]*procEntry)}
}

// tracked reports whether the dataflow follows v's value: reference-
// typed with a TypeRefsTable row, and not a location slot (by-ref
// formals and WITH aliases hold locations — possibly interior pointers
// into other objects — so allocated-type reasoning does not apply).
func (f *flow) tracked(v *ir.Var) bool {
	return v != nil && !v.ByRef && f.row(v.Type) != nil
}

// row returns the TypeRefsTable row for t, or nil for non-reference
// types (and types registered after the table was built).
func (f *flow) row(t types.Type) types.Bitset {
	if t == nil {
		return nil
	}
	if id := t.ID(); id < len(f.a.typeRefs) {
		return f.a.typeRefs[id]
	}
	return nil
}

// disjoint reports whether the refinement proves p at ps and q at qs
// denote locations in distinct heap objects. Only the first-level
// object — the root variable's own value — is tracked, so the proof
// applies exactly when both paths select directly through their roots;
// deeper prefixes travel through the heap, where two syntactically
// different paths can reach the same object.
func (f *flow) disjoint(p *ir.AP, ps Site, q *ir.AP, qs Site) bool {
	if !rootOwned(p) || !rootOwned(q) {
		return false
	}
	sp := f.valueSet(p.Root, ps)
	sq := f.valueSet(q.Root, qs)
	if sp == nil || sq == nil {
		return false
	}
	return !sp.Intersects(sq)
}

// rootOwned reports whether the location ap denotes lies inside the
// object its root variable references directly: a bare variable (the
// points-to question about its value), one selector applied to the
// root, or the dope-expanded element access root{elems}[i] (an open
// array's elements block belongs to the array object).
func rootOwned(ap *ir.AP) bool {
	switch len(ap.Sels) {
	case 0, 1:
		return true
	case 2:
		return ap.Sels[0].Kind == ir.SelDopeElems && ap.Sels[1].Kind == ir.SelIndex
	}
	return false
}

// valueSet returns the set of allocated types root's value may
// reference at the site, or nil when the refinement cannot speak for it
// (untracked variable). Unknown sites and unnarrowed variables yield
// the declared-type row — the flow-insensitive answer.
func (f *flow) valueSet(root *ir.Var, s Site) types.Bitset {
	if !f.tracked(root) {
		return nil
	}
	if s.Proc != nil && s.Instr != nil {
		if narrowed, ok := f.factsFor(s.Proc).at[s.Instr][root]; ok {
			return narrowed
		}
	}
	return f.row(root.Type)
}

// factsFor returns (building on first use) the per-statement facts for
// a procedure in its current shape. Safe for concurrent callers.
func (f *flow) factsFor(p *ir.Proc) *procFlow {
	f.mu.Lock()
	e := f.procs[p]
	if e == nil {
		e = &procEntry{}
		f.procs[p] = e
	}
	f.mu.Unlock()
	e.once.Do(func() { e.pf = f.solve(p) })
	return e.pf
}

// querySite reports whether facts are snapshotted at this instruction:
// every statement the optimizer or the pair counter may name as a Site.
func querySite(op ir.Op) bool {
	switch op {
	case ir.OpLoad, ir.OpStore, ir.OpLoadVarField, ir.OpStoreVarField,
		ir.OpCall, ir.OpMethodCall:
		return true
	}
	return false
}

// solve runs the forward dataflow over p and snapshots the narrowed
// variable facts in force at every query site.
func (f *flow) solve(p *ir.Proc) *procFlow {
	pf := &procFlow{at: make(map[*ir.Instr]map[*ir.Var]types.Bitset)}
	entry := func() flowState { return f.entryState(p) }
	transfer := func(b *ir.Block, in flowState) flowState {
		st := in.clone()
		f.transferBlock(b, st, nil)
		return st
	}
	ins := cfg.ForwardSolve(p, entry, joinStates, transfer, statesEqual)
	// Final sweep: replay each block's transfer, recording the variable
	// facts in force just before every query site executes.
	for _, b := range p.Blocks {
		in, ok := ins[b]
		if !ok {
			continue // unreachable: queries fall back to declared rows
		}
		st := in.clone()
		f.transferBlock(b, st, pf.at)
	}
	return pf
}

// entryState seeds the dataflow. Locals are zero-initialized by the
// machine, so every tracked local starts NIL (the empty set); so do the
// globals when p is the module body, which runs first and is never
// called. Parameters and (elsewhere) globals start at top.
func (f *flow) entryState(p *ir.Proc) flowState {
	st := flowState{vars: map[*ir.Var]types.Bitset{}, paths: map[string]pathFact{}}
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

func (st flowState) clone() flowState {
	out := flowState{
		vars:  make(map[*ir.Var]types.Bitset, len(st.vars)),
		paths: make(map[string]pathFact, len(st.paths)),
	}
	for v, s := range st.vars {
		out.vars[v] = s
	}
	for k, fct := range st.paths {
		out.paths[k] = fct
	}
	return out
}

// joinStates meets predecessor exit states: an entry survives only when
// present on every incoming path, with the union of its per-path sets.
// The first predecessor's set is shared when no other adds bits to it.
func joinStates(preds []flowState) flowState {
	out := flowState{vars: map[*ir.Var]types.Bitset{}, paths: map[string]pathFact{}}
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
			out.paths[k] = pathFact{ap: fct.ap, set: merged}
		}
	}
	return out
}

// unionShared returns dst ∪ src without editing a set it does not own:
// when src adds nothing, dst comes back as is; otherwise a shared dst
// is cloned once before the union. owned reports whether the result is
// a private clone the caller may keep growing.
func unionShared(dst types.Bitset, owned bool, src types.Bitset) (types.Bitset, bool) {
	if subset(src, dst) {
		return dst, owned
	}
	if !owned {
		dst = dst.Clone()
	}
	dst.Union(src)
	return dst, true
}

// subset reports whether every element of a is in b.
func subset(a, b types.Bitset) bool {
	for i, w := range a {
		if i < len(b) {
			w &^= b[i]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

func statesEqual(a, b flowState) bool {
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

// transferBlock applies every instruction of b to st in place. When
// snap is non-nil, the pre-instruction variable facts of each query
// site are recorded into it; consecutive sites share one snapshot map
// until an instruction touches a variable fact (snapshots are never
// mutated after capture, so sharing is safe). Register facts are
// tracked per block only: a register defined in an earlier block
// contributes no narrowing, which is sound (absent means top) —
// lowered code materializes cross-block values in variables and access
// paths, both tracked.
func (f *flow) transferBlock(b *ir.Block, st flowState, snap map[*ir.Instr]map[*ir.Var]types.Bitset) {
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
		if f.transferInstr(in, st, regs) {
			shared = nil
		}
	}
}

// transferInstr applies one instruction to the state and reports
// whether it may have changed a variable fact (invalidating any shared
// snapshot of st.vars).
func (f *flow) transferInstr(in *ir.Instr, st flowState, regs map[ir.Reg]types.Bitset) bool {
	switch in.Op {
	case ir.OpNew, ir.OpNewArray:
		// NEW(T) references an object of exactly the allocation type.
		if f.row(in.Type) != nil {
			s := types.NewBitset(in.Type.ID() + 1)
			s.Add(in.Type.ID())
			regs[in.Dst] = s
		}
	case ir.OpCopy:
		if s := f.operandSet(in.Args[0], st, regs); s != nil {
			regs[in.Dst] = s
		}
	case ir.OpLoad, ir.OpLoadVarField:
		// A load re-narrows to the reaching store's fact when one is in
		// force for the same path; otherwise a heap value of static type
		// T may reference anything in T's row.
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
		// Rewriting v changes what any path mentioning v denotes; if v's
		// slot address escaped, it can also be the target of a by-ref
		// path, whose facts are never tracked (see storeFact).
		killPathsUsing(st, in.Var)
		if f.tracked(in.Var) {
			if s := f.operandSet(in.Args[0], st, regs); s != nil {
				st.vars[in.Var] = s
			} else {
				delete(st.vars, in.Var)
			}
			return true
		}
	case ir.OpStore:
		if in.Sel.Kind == ir.SelDeref || in.AP == nil || in.AP.Root.ByRef {
			// A store through a location (a by-ref formal or WITH alias)
			// may rewrite any variable whose slot address escaped and any
			// heap location at all (locations can point into the heap).
			f.killAddressTaken(st)
			clear(st.paths)
			return true
		}
		f.storeFact(in, st, regs)
	case ir.OpStoreVarField:
		if in.AP != nil {
			f.storeFact(in, st, regs)
		} else {
			// A store with no recorded path could have written anything
			// a fact describes (the optimizer's kill logic treats this
			// case as kill-everything too).
			clear(st.paths)
		}
	case ir.OpCall, ir.OpMethodCall:
		// Without interprocedural summaries the callee may reassign
		// globals, write through locations reaching any address-taken
		// variable, and store anywhere in the heap — kill everything a
		// callee could touch. With summaries (LevelIPTypeRefs), kill
		// only the facts the call's possible callees may actually
		// modify. Returned references are bounded by the result type's
		// row either way (RETURN records a merge).
		if cs := f.a.summaries; cs != nil {
			f.killCallsSummarized(cs, in, st)
		} else {
			f.killCalls(st)
			clear(st.paths)
		}
		if s := f.row(in.Type); s != nil {
			regs[in.Dst] = s
		}
		return true
	}
	return false
}

// storeFact kills every path fact the store invalidates and, when the
// stored value's set is known and the path is re-loadable (non-by-ref
// root, no register subscripts), generates the new fact.
func (f *flow) storeFact(in *ir.Instr, st flowState, regs map[ir.Reg]types.Bitset) {
	for k, fct := range st.paths {
		// Zero Sites make StoreKills purely flow-insensitive here, which
		// avoids re-entering the per-proc fact builder mid-solve.
		if f.a.StoreKills(fct.ap, Site{}, in.AP, Site{}) {
			delete(st.paths, k)
		}
	}
	if in.AP.Root.ByRef {
		return
	}
	for i := range in.AP.Sels {
		if idx := in.AP.Sels[i].Index; idx.Kind == ir.RegOp {
			return // register subscripts cannot be tracked across kills
		}
	}
	if s := f.operandSet(in.Args[0], st, regs); s != nil {
		st.paths[in.AP.String()] = pathFact{ap: in.AP, set: s}
	}
}

// operandSet evaluates the set of allocated types an operand's value
// may reference, or nil for unknown (top).
func (f *flow) operandSet(o ir.Operand, st flowState, regs map[ir.Reg]types.Bitset) types.Bitset {
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
			// NIL references nothing: the non-nil empty set.
			return types.Bitset{}
		}
	}
	return nil
}

// killPathsUsing drops facts for paths that mention v as root or
// subscript: writing v changes which location they denote.
func killPathsUsing(st flowState, v *ir.Var) {
	if v == nil {
		return
	}
	for k, fct := range st.paths {
		if fct.ap.UsesVar(v) {
			delete(st.paths, k)
		}
	}
}

func (f *flow) killAddressTaken(st flowState) {
	at := f.a.prog.AddressTakenVars
	for v := range st.vars {
		if at[v] {
			delete(st.vars, v)
		}
	}
}

func (f *flow) killCalls(st flowState) {
	at := f.a.prog.AddressTakenVars
	for v := range st.vars {
		if v.Kind == ir.GlobalVar || at[v] {
			delete(st.vars, v)
		}
	}
}

// killCallsSummarized is the interprocedural call-kill rule: variable
// facts die only when the callees may rebind the variable (a global
// they reassign, or an escaped local they can reach through a
// location), and path facts only when the callees' summarized stores
// may overwrite the path or something it depends on. Locals whose
// address never escapes are beyond any callee's reach, exactly as in
// killCalls.
func (f *flow) killCallsSummarized(cs CallSummaries, in *ir.Instr, st flowState) {
	at := f.a.prog.AddressTakenVars
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
}
