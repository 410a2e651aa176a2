// Rapid Type Analysis call-graph construction and the interprocedural
// summary builder layered on it.
//
// The paper resolves method invocations with the type hierarchy before
// computing mod-ref (Sections 3.4.1 and 3.7); plain Compute reproduces
// that with the CHA cone — every implementation in the static receiver
// type's subtype cone is a possible callee. ComputeWith additionally
// offers the RTA refinement: only types the program actually
// instantiates can be dynamic receiver types, so dispatch sets (and
// with them every transitive summary) shrink to the implementations of
// instantiated subtypes, optionally narrowed further by the alias
// analysis' TypeRefsTable through the Refine callback.
//
// Summaries are computed bottom-up over the strongly connected
// components of the call graph: Tarjan emits callee SCCs before their
// callers, and every member of an SCC transitively reaches the others,
// so one merged summary per SCC — its members' direct effects plus the
// final summaries of callees outside the SCC — is the exact fixpoint
// for recursion. Escapes the analysis cannot bound stay sound via
// Effects.Top: calls to procedures the program does not define and
// stores with no recorded access path summarize as "may modify
// anything", and an open world disables the instantiated-type filter
// entirely (unavailable code may instantiate any type).
package modref

import (
	"cmp"
	"slices"
	"strings"

	"tbaa/internal/ir"
	"tbaa/internal/types"
)

// Config selects how summaries are built.
type Config struct {
	// RTA builds the call graph by rapid type analysis: a worklist walk
	// from the module body collects instantiated types and resolves
	// method calls only to implementations those types can select, to a
	// fixpoint. Summaries are then computed bottom-up over call-graph
	// SCCs. False reproduces Compute's CHA behavior exactly.
	RTA bool
	// OpenWorld disables the instantiated-type dispatch filter:
	// unavailable code may instantiate any subtype, so the CHA cone is
	// the sound top for dispatch. Direct effects and SCC summaries are
	// still computed (all callees are visible in the closed module).
	OpenWorld bool
	// Refine optionally narrows a method call's possible receiver types
	// to the given type's TypeRefsTable row (the devirtualization
	// refinement of Section 3.7); nil IDs mean "no information".
	Refine func(recv *types.Object) []int
}

// ComputeWith builds mod-ref summaries under cfg. The zero Config is
// Compute.
func ComputeWith(prog *ir.Program, cfg Config) *ModRef {
	mr := &ModRef{
		prog:    prog,
		cfg:     cfg,
		byProc:  make(map[*ir.Proc]*Effects, len(prog.Procs)),
		direct:  make(map[*ir.Proc]*Effects, len(prog.Procs)),
		callees: make(map[*ir.Proc][]*ir.Proc, len(prog.Procs)),
		effMemo: make(map[dispatchKey]*Effects),
		shapes:  newShapeTab(),
		fp:      modrefFPOf(prog),
	}
	if cfg.RTA && !cfg.OpenWorld && prog.Main != nil {
		mr.rta()
	}
	// Both modes summarize bottom-up over call-graph SCCs: one pass in
	// Tarjan emission order computes the same transitive closure the old
	// CHA iterate-until-stable fixpoint did, in linear passes instead of
	// quadratic re-scans.
	mr.collectEdges()
	sccs := mr.tarjanSCCs()
	mr.recordSCCs(sccs)
	if cfg.RTA {
		mr.computeFreshness(sccs)
	}
	mr.collectDirect()
	mr.summarizeSCCs(sccs)
	mr.materializeSummaries()
	return mr
}

// recordSCCs remembers the SCC decomposition the summaries were built
// under, so an incremental Update can prove a component's membership
// unchanged before reusing its results (see incremental.go).
func (mr *ModRef) recordSCCs(sccs [][]*ir.Proc) {
	mr.sccOf = make(map[*ir.Proc]int32, len(mr.prog.Procs))
	mr.sccSize = make([]int32, len(sccs))
	for i, scc := range sccs {
		mr.sccSize[i] = int32(len(scc))
		for _, p := range scc {
			mr.sccOf[p] = int32(i)
		}
	}
}

// materializeSummaries converts every distinct summary's shape bitsets
// into the public Mods/Refs slices, once, after summarization.
func (mr *ModRef) materializeSummaries() {
	done := make(map[*Effects]bool, len(mr.byProc))
	for _, p := range mr.prog.Procs {
		if eff := mr.byProc[p]; !done[eff] {
			done[eff] = true
			eff.materialize(mr.shapes)
		}
	}
}

// Interprocedural reports whether this ModRef was built with the RTA
// interprocedural configuration.
func (mr *ModRef) Interprocedural() bool { return mr.cfg.RTA }

// Instantiated returns the sorted type IDs the RTA walk found
// instantiated, or nil when no instantiated-type filter is active
// (CHA mode, open world, or a program without a module body).
func (mr *ModRef) Instantiated() []int {
	if mr.inst == nil {
		return nil
	}
	return mr.inst.IDs()
}

// Reachable reports whether the RTA walk reached p from the module
// body. Without an RTA walk every procedure counts as reachable.
func (mr *ModRef) Reachable(p *ir.Proc) bool {
	if mr.reachable == nil {
		return true
	}
	return mr.reachable[p]
}

// Callees returns p's call-graph successors (one entry per call edge,
// in instruction order; method calls contribute their dispatch set).
func (mr *ModRef) Callees(p *ir.Proc) []*ir.Proc { return mr.callees[p] }

// rta runs the rapid type analysis fixpoint: starting from the module
// body, scan reachable procedures for allocations and calls; method
// calls dispatch only to implementations selectable by an instantiated
// receiver type, so newly instantiated types can make more procedures
// reachable, which can instantiate more types — iterate until stable.
// The inputs read from each reachable body are kept in rtaIn, so an
// incremental Update can tell whether an edit could move the fixpoint.
func (mr *ModRef) rta() {
	mr.inst = types.NewBitset(mr.prog.Universe.NumTypes())
	mr.reachable = make(map[*ir.Proc]bool)
	mr.rtaIn = make(map[*ir.Proc][]rtaInput)
	var sites []*ir.Instr // method-call sites in reachable code
	var queue []*ir.Proc
	enqueue := func(p *ir.Proc) {
		if p != nil && !mr.reachable[p] {
			mr.reachable[p] = true
			queue = append(queue, p)
		}
	}
	enqueue(mr.prog.Main)
	for {
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			facts := scanRTA(p, func(site *ir.Instr) { sites = append(sites, site) })
			mr.rtaIn[p] = facts
			for _, x := range facts {
				switch x.kind {
				case rtaAlloc:
					mr.inst.Add(int(x.typeID))
				case rtaCall:
					enqueue(mr.prog.ProcByName[x.name])
				}
			}
		}
		// Re-dispatch every reachable method site under the grown
		// instantiated set. No fallback here: an empty dispatch set just
		// means no possible receiver is instantiated yet (or ever).
		for _, in := range sites {
			for _, callee := range mr.dispatch(in, true) {
				enqueue(callee)
			}
		}
		if len(queue) == 0 {
			return
		}
	}
}

// rtaInput is one fact the RTA walk reads from a reachable body: an
// allocated type, a direct callee, or a method-call site's dispatch
// key (static receiver type, -1 when unknown, and method name). A
// site's dispatch set is a function of its key, the universe, the
// instantiated set, and the Refine narrowing, so these facts are the
// body's entire contribution to the fixpoint.
type rtaInput struct {
	kind   rtaKind
	typeID int32
	name   string
}

type rtaKind uint8

const (
	rtaAlloc rtaKind = iota
	rtaCall
	rtaSite
)

// scanRTA returns p's RTA inputs in body order, handing each method
// call instruction to site when site is non-nil.
func scanRTA(p *ir.Proc, site func(*ir.Instr)) []rtaInput {
	var out []rtaInput
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpNew, ir.OpNewArray:
				if in.Type != nil {
					out = append(out, rtaInput{kind: rtaAlloc, typeID: int32(in.Type.ID())})
				}
			case ir.OpCall:
				out = append(out, rtaInput{kind: rtaCall, name: in.Callee})
			case ir.OpMethodCall:
				recv := int32(-1)
				if in.RecvType != nil {
					recv = int32(in.RecvType.ID())
				}
				out = append(out, rtaInput{kind: rtaSite, typeID: recv, name: in.Method})
				if site != nil {
					site(in)
				}
			}
		}
	}
	return out
}

// sameRTAInputs reports whether two bodies feed the RTA walk the same
// facts. Only the sets matter — the fixpoint is order-independent — so
// an edit that reorders or repeats an allocation or call compares
// equal.
func sameRTAInputs(a, b []rtaInput) bool {
	return slices.Equal(rtaInputSet(a), rtaInputSet(b))
}

func rtaInputSet(in []rtaInput) []rtaInput {
	out := slices.Clone(in)
	slices.SortFunc(out, func(x, y rtaInput) int {
		return cmp.Or(cmp.Compare(x.kind, y.kind), cmp.Compare(x.typeID, y.typeID), strings.Compare(x.name, y.name))
	})
	return slices.Compact(out)
}

// reuseRTA reports whether old's RTA result still holds after the
// dirty procedures' bodies changed: each dirty procedure was either
// unreachable in the old walk (its body was never read) or feeds the
// walk the same facts as before. The walk then reads the same inputs
// everywhere and reaches the same least fixpoint. Equal call edges
// under old.inst would not suffice: the walk reads raw allocations,
// calls, and sites, and a fixpoint that happens to reproduce the old
// edges can still be a different least fixpoint.
func reuseRTA(old *ModRef, dirty []*ir.Proc) bool {
	if old.inst == nil || old.rtaIn == nil {
		return false
	}
	for _, p := range dirty {
		if old.reachable[p] && !sameRTAInputs(scanRTA(p, nil), old.rtaIn[p]) {
			return false
		}
	}
	return true
}

// tarjanSCCs returns the call graph's strongly connected components in
// Tarjan emission order: each SCC appears after every SCC it can
// reach, so iterating the result is a bottom-up (callees-first) walk
// of the condensation. Visit state lives in a slice indexed by visit
// order (a procedure's Tarjan index), so an edge costs one map lookup.
func (mr *ModRef) tarjanSCCs() [][]*ir.Proc {
	type node struct {
		low     int32
		onStack bool
	}
	index := make(map[*ir.Proc]int32, len(mr.prog.Procs))
	nodes := make([]node, 0, len(mr.prog.Procs))
	var stack []*ir.Proc
	var sccs [][]*ir.Proc
	var strong func(p *ir.Proc) int32
	strong = func(p *ir.Proc) int32 {
		i := int32(len(nodes))
		index[p] = i
		nodes = append(nodes, node{low: i, onStack: true})
		stack = append(stack, p)
		for _, c := range mr.callees[p] {
			if ci, seen := index[c]; !seen {
				ci = strong(c)
				nodes[i].low = min(nodes[i].low, nodes[ci].low)
			} else if nodes[ci].onStack {
				nodes[i].low = min(nodes[i].low, ci)
			}
		}
		if nodes[i].low == i {
			var scc []*ir.Proc
			for {
				q := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				nodes[index[q]].onStack = false
				scc = append(scc, q)
				if q == p {
					break
				}
			}
			sccs = append(sccs, scc)
		}
		return i
	}
	for _, p := range mr.prog.Procs {
		if _, seen := index[p]; !seen {
			strong(p)
		}
	}
	return sccs
}

// summarizeSCCs computes transitive summaries bottom-up over the
// SCCs. A single pass in Tarjan emission order sees final callee
// summaries; members of one SCC share one summary, which is exact
// because strong connectivity makes their transitive effects coincide
// — the sound fixpoint for recursion, without iteration.
func (mr *ModRef) summarizeSCCs(sccs [][]*ir.Proc) {
	for _, scc := range sccs {
		sum := mr.summarizeSCC(scc)
		for _, p := range scc {
			mr.byProc[p] = sum
		}
	}
}

// summarizeSCC unions one SCC's direct effects with the final
// summaries of its callees outside the SCC (mr.sccOf must record the
// decomposition scc belongs to).
func (mr *ModRef) summarizeSCC(scc []*ir.Proc) *Effects {
	id := mr.sccOf[scc[0]]
	outside := func(c *ir.Proc) bool {
		if len(scc) == 1 {
			return c != scc[0] // the common case, without a map lookup
		}
		return mr.sccOf[c] != id
	}
	sum := &Effects{ModGlobals: make(map[*ir.Var]bool)}
	absorbed := make(map[*Effects]bool)
	for _, p := range scc {
		sum.absorb(mr.direct[p])
		for _, c := range mr.callees[p] {
			if cs := mr.byProc[c]; outside(c) && !absorbed[cs] {
				absorbed[cs] = true
				sum.absorb(cs)
			}
		}
	}
	return sum
}
