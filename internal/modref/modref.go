// Package modref computes interprocedural mod-ref summaries: for every
// procedure, the set of access paths it (transitively) may modify and
// reference, plus the global variables it may reassign. The paper's RLE
// "is preceded by a mod-ref analysis which summarizes the access paths
// that are referenced and modified by each call" (Section 3.4.1); this is
// that analysis.
package modref

import (
	"math/bits"
	"strconv"
	"sync"

	"tbaa/internal/alias"
	"tbaa/internal/cow"
	"tbaa/internal/ir"
	"tbaa/internal/types"
)

// Effects summarizes what a procedure may do to memory, transitively
// through calls.
type Effects struct {
	// Mods are representative access paths of stores the procedure may
	// perform (deduplicated by shape). Their roots are callee-local, but
	// may-alias queries against them only consult types and selectors.
	Mods []*ir.AP
	// Refs are representative access paths of loads.
	Refs []*ir.AP
	// ModGlobals are global variables the procedure may reassign.
	ModGlobals map[*ir.Var]bool
	// WritesThroughLocs reports whether the procedure may store through a
	// location value (a by-ref formal or WITH alias); such stores can hit
	// caller variables whose address was taken.
	WritesThroughLocs bool
	// Top marks a summary about which nothing is known — the sound
	// lattice top the interprocedural builder uses for escapes it cannot
	// bound (a call to a procedure the program does not define, or a
	// store whose access path was not recorded). MayModify and MayRebind
	// answer true for everything under a Top summary.
	Top bool

	// mods and refs are the construction-time representation: bitsets
	// over interned shape IDs (see shapeTab). Absorbing a callee summary
	// is then a word-wise union instead of an O(n·m) scan-based slice
	// merge, which kept the old builder quadratic on deep call graphs.
	// materialize turns them into the public Mods/Refs slices once the
	// bottom-up summarization is complete.
	mods, refs bitvec
}

// bitvec is a growable bitset over shape IDs.
type bitvec []uint64

func (b *bitvec) add(id int32) {
	w := int(id >> 6)
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << uint(id&63)
}

func (b *bitvec) union(src bitvec) {
	if len(src) > len(*b) {
		*b = append(*b, make([]uint64, len(src)-len(*b))...)
	}
	for i, w := range src {
		(*b)[i] |= w
	}
}

// absorb unions src into eff.
func (eff *Effects) absorb(src *Effects) {
	if src == nil {
		return
	}
	eff.mods.union(src.mods)
	eff.refs.union(src.refs)
	for g := range src.ModGlobals {
		eff.ModGlobals[g] = true
	}
	if src.WritesThroughLocs {
		eff.WritesThroughLocs = true
	}
	if src.Top {
		eff.Top = true
	}
}

// materialize fills the public Mods/Refs slices from the shape bitsets,
// in shape-ID (first-interning) order — deterministic across runs.
func (eff *Effects) materialize(st *shapeTab) {
	eff.Mods = st.paths(eff.mods)
	eff.Refs = st.paths(eff.refs)
}

// shapeTab interns access paths by shape (root type plus the selector
// kinds, fields, and types along the path) to dense IDs, so summaries
// can hold shape sets as bitsets. The per-pointer memo is effective
// because the compiler interns APs program-wide. Keying on the type ID
// (nil as its own bucket) refines the old scan's nil-type wildcard at
// worst into an extra representative with identical shape otherwise —
// a superset of representatives, so verdicts stay sound.
//
// Both maps are copy-on-write (cow.Map) and reps is append-only, so an
// incremental Update derives the next generation's table in time
// proportional to what recent generations added (see derive).
type shapeTab struct {
	byAP  *cow.Map[*ir.AP, int32]
	byKey *cow.Map[string, int32]
	reps  []*ir.AP
}

func newShapeTab() *shapeTab {
	return &shapeTab{byAP: cow.FromMap(make(map[*ir.AP]int32)), byKey: cow.FromMap(make(map[string]int32))}
}

func (st *shapeTab) id(ap *ir.AP) int32 {
	if id, ok := st.byAP.Get(ap); ok {
		return id
	}
	key := shapeKey(ap)
	id, ok := st.byKey.Get(key)
	if !ok {
		id = int32(len(st.reps))
		st.byKey.Set(key, id)
		st.reps = append(st.reps, ap)
	}
	st.byAP.Set(ap, id)
	return id
}

// derive returns the next generation's table. It preserves every
// existing ID, so old bitvecs stay valid against it, and never writes
// st, whose bitset-indexed summaries stay live for in-flight queries:
// reps is capped at its length, so the first new shape copies it
// instead of appending into st's backing array.
func (st *shapeTab) derive() *shapeTab {
	return &shapeTab{
		byAP:  st.byAP.Derive(),
		byKey: st.byKey.Derive(),
		reps:  st.reps[:len(st.reps):len(st.reps)],
	}
}

// paths returns the representative APs of the shapes in b.
func (st *shapeTab) paths(b bitvec) []*ir.AP {
	var out []*ir.AP
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			out = append(out, st.reps[w<<6+bits.TrailingZeros64(word)])
		}
	}
	return out
}

func shapeKey(ap *ir.AP) string {
	var b []byte
	b = strconv.AppendInt(b, int64(ap.Root.Type.ID()), 10)
	for i := range ap.Sels {
		s := &ap.Sels[i]
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(s.Kind), 10)
		b = append(b, ':')
		b = append(b, s.Field...)
		b = append(b, ':')
		tid := -1
		if s.Type != nil {
			tid = s.Type.ID()
		}
		b = strconv.AppendInt(b, int64(tid), 10)
	}
	return string(b)
}

// ModRef holds summaries for a whole program.
type ModRef struct {
	prog   *ir.Program
	cfg    Config
	byProc map[*ir.Proc]*Effects
	// direct holds each procedure's own (non-transitive) effects, kept
	// separately from the byProc summaries so an incremental rebuild can
	// re-absorb untouched procedures without rescanning their bodies
	// (see incremental.go).
	direct  map[*ir.Proc]*Effects
	callees map[*ir.Proc][]*ir.Proc
	// shapes interns every Mod/Ref access-path shape to a dense ID;
	// read-only once construction finishes (CallEffects only unions
	// bitsets of finished summaries and reads reps).
	shapes *shapeTab
	// inst is the RTA instantiated-type set; a nil bitset disables the
	// dispatch filter (the CHA cone).
	inst types.Bitset
	// reachable marks procedures the RTA walk reached from the module
	// body; nil when no RTA ran.
	reachable map[*ir.Proc]bool
	// rtaIn holds, per reachable procedure, the inputs the RTA walk read
	// from its body; Update compares a dirty body's inputs against them
	// to reuse inst and reachable (see reuseRTA). Nil when no RTA ran or
	// the ModRef was decoded from a snapshot.
	rtaIn map[*ir.Proc][]rtaInput
	// effMu guards effMemo and undefined: CallEffects is reached from
	// the analyzer's lock-free query path (the flow layer's
	// interprocedural call-kill rule consults it while procedure facts
	// solve concurrently) and from the optimizer's per-procedure
	// workers.
	effMu sync.Mutex
	// effMemo caches the combined effects of method calls by what
	// dispatch reads, the static receiver type and the method name, so
	// copies of a call instruction (every rewrite of a block copies its
	// instructions) share one entry and the memo never holds pointers
	// into instruction arrays a pass replaced.
	effMemo map[dispatchKey]*Effects
	// undefined is the one summary every call to a procedure the program
	// does not define answers with; built on first use.
	undefined *Effects
	// freshStores marks, per procedure, the store instructions whose
	// target object is provably allocated during the procedure's own
	// invocation (see freshness.go); they are invisible to callers.
	// Procedures without such stores have no entry, and an incremental
	// Update shares a reused SCC's sets by pointer. Nil outside RTA
	// mode.
	freshStores map[*ir.Proc]map[*ir.Instr]bool
	// returnsFresh marks procedures whose every return value is an
	// invocation-fresh object. Nil outside RTA mode.
	returnsFresh map[*ir.Proc]bool
	// fp witnesses the global fact tables dispatch and freshness
	// consult; Update bails to a full rebuild when any grew (see
	// incremental.go).
	fp modrefFP
	// sccOf and sccSize record the call-graph SCC decomposition the
	// summaries were built under, so Update can prove a component's
	// membership unchanged before reusing its freshness facts and
	// summary (see incremental.go).
	sccOf   map[*ir.Proc]int32
	sccSize []int32
}

// Compute builds transitive mod-ref summaries over the CHA call graph —
// every method call dispatches to each implementation in its static
// receiver type's subtype cone.
func Compute(prog *ir.Program) *ModRef {
	return ComputeWith(prog, Config{})
}

// collectEdges records every procedure's call-graph successors
// (method-call edges bounded by the current dispatch filter).
func (mr *ModRef) collectEdges() {
	for _, p := range mr.prog.Procs {
		mr.callees[p] = mr.collectProcEdges(p)
	}
}

// collectProcEdges returns one procedure's call-graph successors.
func (mr *ModRef) collectProcEdges(p *ir.Proc) []*ir.Proc {
	var out []*ir.Proc
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpCall:
				if callee := mr.prog.ProcByName[in.Callee]; callee != nil {
					out = append(out, callee)
				}
			case ir.OpMethodCall:
				out = append(out, mr.Dispatch(in)...)
			}
		}
	}
	return out
}

// collectDirect scans every procedure for its direct effects. In RTA
// mode, stores the freshness analysis proved local to one invocation
// (mr.freshStores) are omitted — they cannot overwrite any location a
// caller knew before the call — and escapes that cannot be bounded (a
// store with no recorded path, a call to an undefined procedure)
// poison the summary with the sound Top.
func (mr *ModRef) collectDirect() {
	for _, p := range mr.prog.Procs {
		mr.direct[p] = mr.collectDirectProc(p)
	}
}

// collectDirectProc scans one procedure's body for its direct effects.
func (mr *ModRef) collectDirectProc(p *ir.Proc) *Effects {
	eff := &Effects{ModGlobals: make(map[*ir.Var]bool)}
	fresh := mr.freshStores[p]
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpStore:
				if in.AP != nil {
					if !fresh[in] {
						eff.mods.add(mr.shapes.id(in.AP))
					}
					if in.Sel.Kind == ir.SelDeref {
						eff.WritesThroughLocs = true
					}
				} else if mr.cfg.RTA {
					// A store with no recorded path could hit anything.
					eff.Top = true
				}
			case ir.OpLoad:
				if in.AP != nil && !in.AP.IsDope() {
					eff.refs.add(mr.shapes.id(in.AP))
				}
			case ir.OpSetVar:
				if in.Var.Kind == ir.GlobalVar {
					eff.ModGlobals[in.Var] = true
				}
			case ir.OpStoreVarField:
				if in.Var.Kind == ir.GlobalVar {
					eff.ModGlobals[in.Var] = true
				}
				if in.AP != nil {
					eff.mods.add(mr.shapes.id(in.AP))
				}
			case ir.OpCall:
				if mr.cfg.RTA && mr.prog.ProcByName[in.Callee] == nil {
					// The callee is outside the program: sound top.
					eff.Top = true
				}
			}
		}
	}
	return eff
}

// Effects returns the summary for a procedure.
func (mr *ModRef) Effects(p *ir.Proc) *Effects { return mr.byProc[p] }

// Dispatch returns the procedures a method call may invoke: the
// implementations in the static receiver type's subtype cone, narrowed
// (when this ModRef was built interprocedurally) to RTA-instantiated
// receiver types and the Refine callback's TypeRefsTable row. When the
// filters leave nothing — the call is dead or can only trap — the full
// cone is returned, mirroring devirtualization's conservative fallback.
func (mr *ModRef) Dispatch(in *ir.Instr) []*ir.Proc {
	out := mr.dispatch(in, true)
	if len(out) == 0 && (mr.inst != nil || mr.cfg.Refine != nil) {
		out = mr.dispatch(in, false)
	}
	return out
}

func (mr *ModRef) dispatch(in *ir.Instr, filtered bool) []*ir.Proc {
	seen := map[string]bool{}
	var out []*ir.Proc
	add := func(o *types.Object) {
		if filtered && mr.inst != nil && !mr.inst.Has(o.ID()) {
			return // the dynamic receiver type must be instantiated
		}
		impl := o.Implementation(in.Method)
		if impl == "" || seen[impl] {
			return
		}
		seen[impl] = true
		if p := mr.prog.ProcByName[impl]; p != nil {
			out = append(out, p)
		}
	}
	if in.RecvType == nil {
		// Unknown receiver: any implementation of the method name.
		for _, o := range mr.prog.Universe.ObjectTypes() {
			add(o)
		}
		return out
	}
	var ids []int
	if filtered && mr.cfg.Refine != nil {
		ids = mr.cfg.Refine(in.RecvType) // TypeRefsTable row ⊆ the cone
	}
	if ids == nil {
		ids = mr.prog.Universe.Subtypes(in.RecvType)
	}
	for _, id := range ids {
		if o, ok := mr.prog.Universe.ByID(id).(*types.Object); ok {
			add(o)
		}
	}
	return out
}

// dispatchKey identifies a method call by everything dispatch reads.
type dispatchKey struct {
	recv   types.Type
	method string
}

// CallEffects returns the combined effects of a call instruction
// (OpCall or OpMethodCall). A direct call answers with its callee's
// summary; a method call's combination over its dispatch targets is
// memoized per (receiver type, method), so every copy of a call gets
// the same *Effects. Safe for concurrent callers: the summaries
// themselves are immutable once computed, so only the memo needs the
// lock.
func (mr *ModRef) CallEffects(in *ir.Instr) *Effects {
	switch in.Op {
	case ir.OpCall:
		if callee := mr.prog.ProcByName[in.Callee]; callee != nil {
			return mr.byProc[callee]
		}
		mr.effMu.Lock()
		defer mr.effMu.Unlock()
		if mr.undefined == nil {
			// Under RTA an undefined callee could do anything: sound top.
			mr.undefined = &Effects{ModGlobals: map[*ir.Var]bool{}, Top: mr.cfg.RTA}
		}
		return mr.undefined
	case ir.OpMethodCall:
		key := dispatchKey{in.RecvType, in.Method}
		mr.effMu.Lock()
		eff, ok := mr.effMemo[key]
		mr.effMu.Unlock()
		if ok {
			return eff
		}
		eff = mr.methodEffects(in)
		mr.effMu.Lock()
		if prior, ok := mr.effMemo[key]; ok {
			eff = prior // keep one canonical summary per key
		} else {
			mr.effMemo[key] = eff
		}
		mr.effMu.Unlock()
		return eff
	}
	return &Effects{ModGlobals: map[*ir.Var]bool{}}
}

// methodEffects combines the summaries of a method call's dispatch
// targets.
func (mr *ModRef) methodEffects(in *ir.Instr) *Effects {
	combined := &Effects{ModGlobals: make(map[*ir.Var]bool)}
	seen := make(map[*Effects]bool)
	for _, callee := range mr.Dispatch(in) {
		if sum := mr.byProc[callee]; !seen[sum] {
			seen[sum] = true
			combined.absorb(sum)
		}
	}
	combined.materialize(mr.shapes)
	return combined
}

// StoreKills reports whether a store to dst invalidates the value of
// access path ap: the store may overwrite the location ap denotes (a
// content change), or the location of one of ap's proper prefixes —
// rewriting which object the deeper path selects through, so ap no
// longer names the location the cached value came from (a denotation
// change; VarWriteKills handles the root variable). Prefix-blind
// matching miscompiled `x.q := t` between a store and a load of x.q.p:
// the final fields differ, so MayAlias(x.q.p, x.q) is false, yet the
// reload must see t's object. Analysis implements the rule itself
// (alias.StoreKiller, with prefix caching); the fallback serves the
// trivial oracles.
func StoreKills(o alias.Oracle, ap *ir.AP, apSite alias.Site, dst *ir.AP, dstSite alias.Site) bool {
	if sk, ok := o.(alias.StoreKiller); ok {
		return sk.StoreKills(ap, apSite, dst, dstSite)
	}
	if alias.MayAliasAt(o, ap, apSite, dst, dstSite) {
		return true
	}
	for k := 1; k < len(ap.Sels); k++ {
		prefix := &ir.AP{Root: ap.Root, Sels: ap.Sels[:k]}
		if alias.MayAliasAt(o, prefix, apSite, dst, dstSite) {
			return true
		}
	}
	return false
}

// VarWriteKills reports whether writing variable v may change the value
// or meaning of path ap: either ap mentions v (root or subscript), or ap
// dereferences a location (its root is a by-ref formal or WITH alias)
// that may point at v because v's address was taken. Location targets
// have exactly their declared type in Modula-3 (VAR actuals must match
// formals exactly), so type-ID equality is sound here.
func VarWriteKills(ap *ir.AP, v *ir.Var, addrTakenVars map[*ir.Var]bool) bool {
	if ap.UsesVar(v) {
		return true
	}
	if addrTakenVars[v] && ap.Root.ByRef && v.Type.ID() == ap.Root.Type.ID() {
		return true
	}
	return false
}

// LocStoreKills reports whether a store through a location with the given
// target type may write a variable that ap depends on: the root (if its
// address was taken, the store can redirect what ap's prefix denotes) or
// a subscript variable (changing which element ap names).
func LocStoreKills(ap *ir.AP, targetTypeID int, addrTakenVars map[*ir.Var]bool) bool {
	if addrTakenVars[ap.Root] && ap.Root.Type.ID() == targetTypeID {
		return true
	}
	for i := range ap.Sels {
		s := &ap.Sels[i]
		if s.Kind == ir.SelIndex && s.Index.Kind == ir.VarOp {
			v := s.Index.Var
			if addrTakenVars[v] && v.Type.ID() == targetTypeID {
				return true
			}
		}
	}
	return false
}

// MayModify reports whether a call with the given effects may overwrite
// the location denoted by ap — or a variable ap depends on — under the
// given alias oracle. site is the statement ap is being evaluated at
// (normally the call site); site-aware oracles use it to narrow ap's
// root, while the callee's representative paths carry no statement
// context (a zero Site) and are judged by their declared types.
func MayModify(eff *Effects, ap *ir.AP, site alias.Site, o alias.Oracle, addrTakenVars map[*ir.Var]bool) bool {
	if eff == nil || eff.Top {
		return true
	}
	for g := range eff.ModGlobals {
		if VarWriteKills(ap, g, addrTakenVars) {
			return true
		}
	}
	for _, m := range eff.Mods {
		if StoreKills(o, ap, site, m, alias.Site{}) {
			return true
		}
		if last := m.Last(); last != nil && last.Kind == ir.SelDeref {
			if LocStoreKills(ap, m.Type().ID(), addrTakenVars) {
				return true
			}
		}
	}
	return false
}

// MayRebind reports whether a call with these effects may reassign
// variable v in the caller: the callee (transitively) reassigns the
// global v, or v's address was taken and the callee stores through a
// location whose target type is v's (location targets carry exactly
// their declared type, as in VarWriteKills). This is the variable half
// of MayModify, used by the flow-sensitive layer's call-kill rule on
// its per-variable facts.
func (eff *Effects) MayRebind(v *ir.Var, addrTakenVars map[*ir.Var]bool) bool {
	if eff == nil || eff.Top {
		return true
	}
	if eff.ModGlobals[v] {
		return true
	}
	if eff.WritesThroughLocs && addrTakenVars[v] {
		for _, m := range eff.Mods {
			if last := m.Last(); last != nil && last.Kind == ir.SelDeref && m.Type().ID() == v.Type.ID() {
				return true
			}
		}
	}
	return false
}
