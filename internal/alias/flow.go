package alias

import (
	"slices"
	"sync"
	"weak"

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
//
// Each procedure is solved once, on a flat layout numbered up front:
// the variables a state can narrow get dense slots, every load and
// store path gets a class (paths that render alike share one, so each
// path is rendered once per solve, not per transfer), and blocks are
// indexed by reverse-postorder position. A state is one cell per slot
// plus a short list of path facts sorted by class; every block's entry
// and exit states live in one slab, and a block is re-transferred only
// when a predecessor's exit changed. The result keeps only the
// snapshots of the variable facts at the query sites, packed into one
// slice; the solver's scratch is reused between garbage collections.

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
// oracle serves the kill queries against them); anything else gets
// uninterned prefixes built on demand.
func (a *Analysis) prefixes(p *ir.AP) []*ir.AP {
	if len(p.Sels) < 2 {
		return nil
	}
	if a.apIdx != nil {
		if pre := a.apIdx.Prefixes(p); pre != nil {
			return pre
		}
	}
	pre := make([]*ir.AP, 0, len(p.Sels)-1)
	for k := 1; k < len(p.Sels); k++ {
		pre = append(pre, &ir.AP{Root: p.Root, Sels: p.Sels[:k]})
	}
	return pre
}

// StoreKiller is the optional oracle extension modref.StoreKills
// dispatches to; Analysis implements it over the intern index's
// canonical prefix chains.
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

// procFlow is one procedure's result: at every query site where some
// variable is narrowed, the variable facts in force when the statement
// executes. Consecutive sites of a block share one snapshot until an
// instruction between them may change a variable fact. Path facts feed
// loads during the solve and are not kept.
type procFlow struct {
	// at maps a query site to its snapshot, facts[lo:hi]; a site with no
	// narrowed variable is absent.
	at    map[*ir.Instr]snapshot
	facts []varFact
}

type snapshot struct{ lo, hi int32 }

// varFact is one narrowed variable of a snapshot.
type varFact struct {
	v   *ir.Var
	set types.Bitset
}

// fact returns the set v is narrowed to at the query site in, and false
// when v is not narrowed there (top: its declared-type row).
func (pf *procFlow) fact(in *ir.Instr, v *ir.Var) (types.Bitset, bool) {
	s, ok := pf.at[in]
	if !ok {
		return nil, false
	}
	for _, vf := range pf.facts[s.lo:s.hi] {
		if vf.v == v {
			return vf.set, true
		}
	}
	return nil, false
}

type flow struct {
	a *Analysis
	// mu guards the procs map only; each entry's once serializes that
	// procedure's solve, so distinct procedures solve concurrently (the
	// parallel CountPairs prebuild and RLE's workers fan them out).
	mu    sync.Mutex
	procs map[*ir.Proc]*procEntry
}

// procEntry holds one procedure's facts, solved at most once per
// program shape. The facts own their storage (no solver scratch), so
// alias.Update carries an untouched procedure's entry over by pointer.
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
		if narrowed, ok := f.factsFor(s.Proc).fact(s.Instr, root); ok {
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

// cell is one variable slot of a state. ok is the presence bit: an
// absent slot is top (the declared-type row), while a present empty set
// means NIL on every path here. Present sets are never nil.
type cell struct {
	set types.Bitset
	ok  bool
}

// pathFact narrows the value last stored to one access path. cls is the
// path's class: paths that render alike share one, at most one fact per
// class is in force, and a load uses the fact only when ap is Equal to
// its own path. A state's path facts are sorted by class.
type pathFact struct {
	cls int32
	ap  *ir.AP
	set types.Bitset
}

// solver is the scratch of one procedure's solve. Solvers are reused
// (see spare): the procFlow a solve returns points into none of it.
type solver struct {
	f *flow

	// Numbering. Variable slots are the tracked locals (and the module
	// body's globals), which start NIL, plus every other tracked
	// variable an OpSetVar writes. Blocks are numbered by their
	// reverse-postorder position k; pos maps a block's index in p.Blocks
	// to k, or -1 when it is unreachable.
	slotOf   map[*ir.Var]int32
	slots    []*ir.Var
	nEntry   int    // slots[:nEntry] start NIL
	atSlot   []bool // the slot's address escaped
	callSlot []bool // a call may rebind the slot: a global, or escaped
	blockPos map[*ir.Block]int32
	pos      []int32
	rpo      []*ir.Block
	dfs      []dfsFrame
	// cls holds a path class (or -1) for every instruction of every
	// reachable block, block k's from clsOff[k]; preds holds block k's
	// reachable predecessors, in b.Preds order, from predOff[k].
	apCls   map[*ir.AP]int32
	nameCls map[string]int32
	cls     []int32
	clsOff  []int32
	preds   []int32
	predOff []int32

	// States. Block k's entry and exit variable cells are
	// cells[2kn:(2k+1)n] and cells[(2k+1)n:(2k+2)n] for n slots. A block
	// is re-transferred only when a predecessor's exit changed after
	// its last join: changedAt and joinedAt are stamps of one clock.
	cells               []cell
	inPaths, outPaths   [][]pathFact
	done                []bool
	changedAt, joinedAt []uint32
	clock               uint32
	owned               []bool // join scratch: a cell's set is this join's own clone
	cur                 []cell
	curPaths            []pathFact

	// Register facts live for one block transfer: regs[r] is current
	// when regAt[r] is the transfer's epoch.
	regs    []types.Bitset
	regAt   []uint32
	epoch   uint32
	singles map[int]types.Bitset // NEW(T)'s set {T}, per type ID

	// The final sweep's snapshots, copied into exact-size storage.
	snapFacts []varFact
	sites     []siteSnap
}

type dfsFrame struct {
	b    *ir.Block
	next int
}

type siteSnap struct {
	in *ir.Instr
	s  snapshot
}

// spare holds idle solvers for the next solve. Its pointers are weak:
// a collection frees every idle solver, so scratch is reused between
// collections but never counted in the live heap after one, as a
// sync.Pool's victim cache would be.
var spare struct {
	mu      sync.Mutex
	solvers []weak.Pointer[solver]
}

func getSolver() *solver {
	spare.mu.Lock()
	defer spare.mu.Unlock()
	for n := len(spare.solvers); n > 0; n-- {
		s := spare.solvers[n-1].Value()
		spare.solvers = spare.solvers[:n-1]
		if s != nil {
			return s
		}
	}
	return &solver{
		slotOf:   make(map[*ir.Var]int32),
		blockPos: make(map[*ir.Block]int32),
		apCls:    make(map[*ir.AP]int32),
		nameCls:  make(map[string]int32),
		singles:  make(map[int]types.Bitset),
	}
}

func putSolver(s *solver) {
	spare.mu.Lock()
	spare.solvers = append(spare.solvers, weak.Make(s))
	spare.mu.Unlock()
}

// solve runs the forward dataflow over p to its fixpoint and snapshots
// the narrowed variable facts in force at every query site.
func (f *flow) solve(p *ir.Proc) *procFlow {
	s := getSolver()
	s.f = f
	s.number(p)
	s.fixpoint(p.NumRegs)
	pf := s.snapshots()
	s.release()
	putSolver(s)
	return pf
}

// number orders p's reachable blocks in reverse postorder and numbers
// the variable slots and the path classes of the instructions in them.
// It renders each distinct path once.
func (s *solver) number(p *ir.Proc) {
	f := s.f
	for _, v := range p.Locals {
		s.entrySlot(v)
	}
	if p == f.a.prog.Main {
		for _, v := range f.a.prog.Globals {
			s.entrySlot(v)
		}
	}
	s.nEntry = len(s.slots)
	s.order(p)
	s.clsOff = s.clsOff[:0]
	s.predOff = s.predOff[:0]
	for _, b := range s.rpo {
		s.clsOff = append(s.clsOff, int32(len(s.cls)))
		s.predOff = append(s.predOff, int32(len(s.preds)))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			c := int32(-1)
			switch in.Op {
			case ir.OpLoad, ir.OpLoadVarField, ir.OpStore, ir.OpStoreVarField:
				if in.AP != nil {
					c = s.classOf(in.AP)
				}
			case ir.OpSetVar:
				if f.tracked(in.Var) {
					s.slot(in.Var)
				}
			}
			s.cls = append(s.cls, c)
		}
		for _, pred := range b.Preds {
			if j := s.pos[s.index(pred)]; j >= 0 {
				s.preds = append(s.preds, j)
			}
		}
	}
	s.clsOff = append(s.clsOff, int32(len(s.cls)))
	s.predOff = append(s.predOff, int32(len(s.preds)))
}

// entrySlot numbers a variable that starts NIL, if tracked.
func (s *solver) entrySlot(v *ir.Var) {
	if s.f.tracked(v) {
		s.slot(v)
	}
}

func (s *solver) slot(v *ir.Var) int32 {
	if k, ok := s.slotOf[v]; ok {
		return k
	}
	k := int32(len(s.slots))
	s.slotOf[v] = k
	s.slots = append(s.slots, v)
	at := s.f.a.prog.AddressTakenVars[v]
	s.atSlot = append(s.atSlot, at)
	s.callSlot = append(s.callSlot, at || v.Kind == ir.GlobalVar)
	return k
}

// classOf returns ap's class: its source rendering, numbered.
func (s *solver) classOf(ap *ir.AP) int32 {
	if c, ok := s.apCls[ap]; ok {
		return c
	}
	name := ap.String()
	c, ok := s.nameCls[name]
	if !ok {
		c = int32(len(s.nameCls))
		s.nameCls[name] = c
	}
	s.apCls[ap] = c
	return c
}

// index returns b's index in p.Blocks. Lowering, inlining and edge
// splitting keep a block's ID equal to its index; order falls back to
// a map for procedures where they differ (a decoded artifact carries
// whatever IDs its bytes name).
func (s *solver) index(b *ir.Block) int {
	if len(s.blockPos) == 0 {
		return b.ID
	}
	return int(s.blockPos[b])
}

// order fills rpo and pos with the reverse postorder of the blocks
// reachable from p.Entry: the order cfg.ReversePostorder returns.
func (s *solver) order(p *ir.Proc) {
	for i, b := range p.Blocks {
		if b.ID != i {
			for i, b := range p.Blocks {
				s.blockPos[b] = int32(i)
			}
			break
		}
	}
	s.pos = slices.Grow(s.pos[:0], len(p.Blocks))[:len(p.Blocks)]
	for i := range s.pos {
		s.pos[i] = -1
	}
	s.pos[s.index(p.Entry)] = 0
	s.dfs = append(s.dfs[:0], dfsFrame{b: p.Entry})
	for len(s.dfs) > 0 {
		top := &s.dfs[len(s.dfs)-1]
		if top.next < len(top.b.Succs) {
			succ := top.b.Succs[top.next]
			top.next++
			if i := s.index(succ); s.pos[i] < 0 {
				s.pos[i] = 0
				s.dfs = append(s.dfs, dfsFrame{b: succ})
			}
			continue
		}
		s.rpo = append(s.rpo, top.b)
		s.dfs = s.dfs[:len(s.dfs)-1]
	}
	slices.Reverse(s.rpo)
	for k, b := range s.rpo {
		s.pos[s.index(b)] = int32(k)
	}
}

// fixpoint solves the dataflow. Blocks are visited in reverse postorder
// until no exit state changes; the entry block starts from the entry
// state, and every other block from the join of the predecessors that
// have an exit state (back edges on the first sweep are skipped, which
// yields the optimistic least fixpoint).
func (s *solver) fixpoint(regs int) {
	n, m := len(s.slots), len(s.rpo)
	s.cells = resize(s.cells, 2*n*m)
	s.cur = resize(s.cur, n)
	s.owned = resize(s.owned, n)
	s.inPaths = resize(s.inPaths, m)
	s.outPaths = resize(s.outPaths, m)
	s.done = resize(s.done, m)
	s.changedAt = resize(s.changedAt, m)
	s.joinedAt = resize(s.joinedAt, m)
	s.clock = 0
	s.regs = resize(s.regs, regs)
	s.regAt = resize(s.regAt, regs)
	s.epoch = 0
	// The entry state: locals are zero-initialized by the machine, so
	// every tracked local starts NIL; so do the globals when p is the
	// module body, which runs first and is never called. Everything else
	// starts at top.
	for i := range s.nEntry {
		s.cells[i] = cell{set: types.Bitset{}, ok: true}
	}
	for changed := true; changed; {
		changed = false
		for k := range s.rpo {
			if !s.join(k) {
				continue
			}
			copy(s.cur, s.cells[2*k*n:(2*k+1)*n])
			s.curPaths = append(s.curPaths[:0], s.inPaths[k]...)
			s.transferBlock(k, false)
			out := s.cells[(2*k+1)*n : (2*k+2)*n]
			if s.done[k] && sameState(s.cur, out, s.curPaths, s.outPaths[k]) {
				continue
			}
			copy(out, s.cur)
			s.outPaths[k] = append(s.outPaths[k][:0], s.curPaths...)
			s.done[k] = true
			s.clock++
			s.changedAt[k] = s.clock
			changed = true
		}
	}
}

func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// join computes block k's entry state in place and reports whether the
// block needs a transfer: its first visit, or a predecessor's exit
// changed since its last join. A set no other predecessor adds to is
// shared with the first predecessor's exit; one that grows is unioned
// into a clone.
func (s *solver) join(k int) bool {
	n := len(s.slots)
	if k == 0 {
		return !s.done[0] // the entry state never changes
	}
	preds := s.preds[s.predOff[k]:s.predOff[k+1]]
	stale := false
	for _, j := range preds {
		if s.done[j] && s.changedAt[j] > s.joinedAt[k] {
			stale = true
			break
		}
	}
	if !stale {
		return false
	}
	s.clock++
	s.joinedAt[k] = s.clock
	in := s.cells[2*k*n : (2*k+1)*n]
	paths := s.inPaths[k][:0]
	first := true
	for _, j := range preds {
		if !s.done[j] {
			continue
		}
		out := s.cells[(2*int(j)+1)*n : (2*int(j)+2)*n]
		other := s.outPaths[j]
		if first {
			first = false
			copy(in, out)
			clear(s.owned)
			paths = append(paths, other...)
			continue
		}
		for i := range in {
			if !in[i].ok {
				continue
			}
			if !out[i].ok {
				in[i] = cell{}
				continue
			}
			in[i].set, s.owned[i] = unionShared(in[i].set, s.owned[i], out[i].set)
		}
		// Both lists are sorted by class: a fact survives when the other
		// predecessor holds one for an Equal path. Path facts are rare, so
		// a growing union is always cloned.
		w, o := 0, 0
		for _, fct := range paths {
			for o < len(other) && other[o].cls < fct.cls {
				o++
			}
			if o == len(other) || other[o].cls != fct.cls || !other[o].ap.Equal(fct.ap) {
				continue
			}
			fct.set, _ = unionShared(fct.set, false, other[o].set)
			paths[w] = fct
			w++
		}
		paths = paths[:w]
	}
	s.inPaths[k] = paths
	return true
}

// sameState reports whether two states hold the same facts. Path facts
// compare by class and set: a fact whose path changed to another of
// the same rendering, with the same set, is no change.
func sameState(a, b []cell, ap, bp []pathFact) bool {
	for i := range a {
		if a[i].ok != b[i].ok || a[i].ok && !a[i].set.Equal(b[i].set) {
			return false
		}
	}
	if len(ap) != len(bp) {
		return false
	}
	for i := range ap {
		if ap[i].cls != bp[i].cls || !ap[i].set.Equal(bp[i].set) {
			return false
		}
	}
	return true
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

// snapshots replays every reachable block from its converged entry
// state and records the variable facts in force just before each query
// site, into storage of exact size.
func (s *solver) snapshots() *procFlow {
	n := len(s.slots)
	for k := range s.rpo {
		copy(s.cur, s.cells[2*k*n:(2*k+1)*n])
		s.curPaths = append(s.curPaths[:0], s.inPaths[k]...)
		s.transferBlock(k, true)
	}
	pf := &procFlow{}
	if len(s.sites) == 0 {
		return pf
	}
	pf.facts = slices.Clone(s.snapFacts)
	pf.at = make(map[*ir.Instr]snapshot, len(s.sites))
	for _, ss := range s.sites {
		pf.at[ss.in] = ss.s
	}
	return pf
}

// release empties the solver for its next solve, keeping capacity. The
// slices fixpoint resizes are cleared there.
func (s *solver) release() {
	s.f = nil
	clear(s.slotOf)
	clear(s.blockPos)
	clear(s.apCls)
	clear(s.nameCls)
	clear(s.singles)
	s.slots, s.atSlot, s.callSlot = s.slots[:0], s.atSlot[:0], s.callSlot[:0]
	s.rpo, s.cls, s.preds = s.rpo[:0], s.cls[:0], s.preds[:0]
	s.snapFacts, s.sites = s.snapFacts[:0], s.sites[:0]
}

// transferBlock applies block k's instructions to the current state.
// With record set, each query site first shares the snapshot of the
// site before it, or takes a new one after an instruction that may have
// changed a variable fact. Register facts are tracked per block only:
// a register defined in an earlier block contributes no narrowing,
// which is sound (absent means top) — lowered code materializes
// cross-block values in variables and access paths, both tracked.
func (s *solver) transferBlock(k int, record bool) {
	b := s.rpo[k]
	cls := s.cls[s.clsOff[k]:s.clsOff[k+1]]
	s.epoch++
	if s.epoch == 0 {
		clear(s.regAt)
		s.epoch = 1
	}
	open := false
	var snap snapshot
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if record && querySite(in.Op) {
			if !open {
				snap, open = s.snap(), true
			}
			if snap.hi > snap.lo {
				s.sites = append(s.sites, siteSnap{in, snap})
			}
		}
		if s.transferInstr(in, cls[i]) {
			open = false
		}
	}
}

// snap appends the present variable facts of the current state to the
// snapshot storage.
func (s *solver) snap() snapshot {
	lo := len(s.snapFacts)
	for i, c := range s.cur {
		if c.ok {
			s.snapFacts = append(s.snapFacts, varFact{s.slots[i], c.set})
		}
	}
	return snapshot{int32(lo), int32(len(s.snapFacts))}
}

func (s *solver) reg(r ir.Reg) types.Bitset {
	if int(r) < len(s.regs) && s.regAt[r] == s.epoch {
		return s.regs[r]
	}
	return nil
}

func (s *solver) setReg(r ir.Reg, set types.Bitset) {
	for int(r) >= len(s.regs) {
		s.regs = append(s.regs, nil)
		s.regAt = append(s.regAt, 0)
	}
	s.regs[r], s.regAt[r] = set, s.epoch
}

// transferInstr applies one instruction, of path class cls, to the
// current state and reports whether it may have changed a variable fact
// (ending the snapshot the sites before it share).
func (s *solver) transferInstr(in *ir.Instr, cls int32) bool {
	f := s.f
	switch in.Op {
	case ir.OpNew, ir.OpNewArray:
		// NEW(T) references an object of exactly the allocation type.
		if f.row(in.Type) != nil {
			id := in.Type.ID()
			set, ok := s.singles[id]
			if !ok {
				set = types.NewBitset(id + 1)
				set.Add(id)
				s.singles[id] = set
			}
			s.setReg(in.Dst, set)
		}
	case ir.OpCopy:
		if set := s.operandSet(in.Args[0]); set != nil {
			s.setReg(in.Dst, set)
		}
	case ir.OpLoad, ir.OpLoadVarField:
		// A load re-narrows to the reaching store's fact when one is in
		// force for the same path; otherwise a heap value of static type
		// T may reference anything in T's row.
		if cls >= 0 {
			if i, ok := s.findPath(cls); ok && s.curPaths[i].ap.Equal(in.AP) {
				s.setReg(in.Dst, s.curPaths[i].set)
				return false
			}
		}
		if set := f.row(in.Type); set != nil {
			s.setReg(in.Dst, set)
		}
	case ir.OpBuiltin:
		if set := f.row(in.Type); set != nil {
			s.setReg(in.Dst, set)
		}
	case ir.OpSetVar:
		// Rewriting v changes what any path mentioning v denotes; if v's
		// slot address escaped, it can also be the target of a by-ref
		// path, whose facts are never tracked (see storeFact).
		if in.Var != nil {
			w := 0
			for _, fct := range s.curPaths {
				if !fct.ap.UsesVar(in.Var) {
					s.curPaths[w] = fct
					w++
				}
			}
			s.curPaths = s.curPaths[:w]
		}
		if k, ok := s.slotOf[in.Var]; ok {
			if set := s.operandSet(in.Args[0]); set != nil {
				s.cur[k] = cell{set: set, ok: true}
			} else {
				s.cur[k] = cell{}
			}
			return true
		}
	case ir.OpStore:
		if in.Sel.Kind == ir.SelDeref || in.AP == nil || in.AP.Root.ByRef {
			// A store through a location (a by-ref formal or WITH alias)
			// may rewrite any variable whose slot address escaped and any
			// heap location at all (locations can point into the heap).
			for k := range s.cur {
				if s.atSlot[k] {
					s.cur[k] = cell{}
				}
			}
			s.curPaths = s.curPaths[:0]
			return true
		}
		s.storeFact(in, cls)
	case ir.OpStoreVarField:
		if in.AP != nil {
			s.storeFact(in, cls)
		} else {
			// A store with no recorded path could have written anything
			// a fact describes (the optimizer's kill logic treats this
			// case as kill-everything too).
			s.curPaths = s.curPaths[:0]
		}
	case ir.OpCall, ir.OpMethodCall:
		// Without interprocedural summaries the callee may reassign
		// globals, write through locations reaching any address-taken
		// variable, and store anywhere in the heap — kill everything a
		// callee could touch. With summaries (LevelIPTypeRefs), kill
		// only the facts the call's possible callees may actually
		// modify: a variable dies only when they may rebind it, a path
		// only when their summarized stores may overwrite it or
		// something it depends on. Locals whose address never escapes
		// are beyond any callee's reach either way. Returned references
		// are bounded by the result type's row (RETURN records a merge).
		cs := f.a.summaries
		for k, v := range s.slots {
			if s.cur[k].ok && s.callSlot[k] && (cs == nil || cs.CallMayRebind(in, v)) {
				s.cur[k] = cell{}
			}
		}
		w := 0
		for _, fct := range s.curPaths {
			if cs != nil && !cs.CallKillsPath(in, fct.ap) {
				s.curPaths[w] = fct
				w++
			}
		}
		s.curPaths = s.curPaths[:w]
		if set := f.row(in.Type); set != nil {
			s.setReg(in.Dst, set)
		}
		return true
	}
	return false
}

// storeFact kills every path fact the store invalidates and, when the
// stored value's set is known and the path is re-loadable (non-by-ref
// root, no register subscripts), generates the new fact.
func (s *solver) storeFact(in *ir.Instr, cls int32) {
	// Zero Sites make StoreKills purely flow-insensitive here, which
	// avoids re-entering the per-proc fact builder mid-solve.
	w := 0
	for _, fct := range s.curPaths {
		if !s.f.a.StoreKills(fct.ap, Site{}, in.AP, Site{}) {
			s.curPaths[w] = fct
			w++
		}
	}
	s.curPaths = s.curPaths[:w]
	if in.AP.Root.ByRef {
		return
	}
	for i := range in.AP.Sels {
		if idx := in.AP.Sels[i].Index; idx.Kind == ir.RegOp {
			return // register subscripts cannot be tracked across kills
		}
	}
	set := s.operandSet(in.Args[0])
	if set == nil {
		return
	}
	fct := pathFact{cls: cls, ap: in.AP, set: set}
	i, ok := s.findPath(cls)
	if ok {
		s.curPaths[i] = fct
	} else {
		s.curPaths = slices.Insert(s.curPaths, i, fct)
	}
}

// findPath returns the index of the current fact of class cls, or where
// one would be inserted.
func (s *solver) findPath(cls int32) (int, bool) {
	for i, fct := range s.curPaths {
		if fct.cls >= cls {
			return i, fct.cls == cls
		}
	}
	return len(s.curPaths), false
}

// operandSet evaluates the set of allocated types an operand's value
// may reference, or nil for unknown (top).
func (s *solver) operandSet(o ir.Operand) types.Bitset {
	switch o.Kind {
	case ir.VarOp:
		if !s.f.tracked(o.Var) {
			return nil
		}
		if k, ok := s.slotOf[o.Var]; ok && s.cur[k].ok {
			return s.cur[k].set
		}
		return s.f.row(o.Var.Type)
	case ir.RegOp:
		return s.reg(o.Reg)
	case ir.ConstOp:
		if o.Const.Kind == ir.NilConst {
			// NIL references nothing: the non-nil empty set.
			return types.Bitset{}
		}
	}
	return nil
}
