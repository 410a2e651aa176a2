package modref

import (
	"tbaa/internal/ir"
	"tbaa/internal/types"
)

// This file implements the incremental counterpart of ComputeWith:
// rebuilding a ModRef after a known set of procedures was mutated, at a
// cost proportional to the mutated bodies' components of the call graph
// instead of the whole program.
//
// Like the alias layer's delta (internal/alias/incremental.go), this
// path is exact, not merely conservative: every reused freshness fact,
// direct-effects scan, and SCC summary is justified by an invariant
// below, and whenever an invariant cannot be established Update either
// recomputes the piece or returns nil so the caller falls back to
// ComputeWith — which is always exact. A dirty-set bug therefore only
// costs performance, never soundness.
//
// The reuse invariants, bottom-up:
//
//   - The RTA result (instantiated set and reachable procedures) is
//     reused by pointer when every dirty procedure either was
//     unreachable in the old walk, which then never read its body, or
//     feeds the walk the same set of allocated types, direct callee
//     names, and method-site dispatch keys the old walk recorded for it
//     (reuseRTA). The walk then reads the same inputs everywhere and
//     reaches the same least fixpoint. The raw inputs are compared, not
//     the call edges under the old instantiated set: equal edges at the
//     old fixpoint do not imply the same least fixpoint. Otherwise the
//     walk reruns whole, and a changed instantiated set bails to
//     ComputeWith.
//   - Call edges of a clean procedure are unchanged: direct calls
//     resolve through ProcByName (no procedure added, removed, or
//     renamed — guarded by the fingerprint's proc count; edited bodies
//     keep their *ir.Proc identity) and method-call dispatch depends on
//     the body's sites, the universe, the RTA instantiated set, and the
//     Refine narrowing, all of which the fingerprint and the RTA rule
//     above pin.
//   - Freshness facts of an SCC are unchanged when its membership is the
//     same as in the old decomposition, no member was mutated, and every
//     outside callee's returnsFresh fact is unchanged — those are the
//     only inputs of freshnessSCC's fixpoint besides AddressTakenVars
//     (fingerprint-guarded). Fresh-store marks are kept per procedure,
//     so a reused SCC shares its members' mark sets by pointer.
//   - Direct effects of a clean procedure whose freshStores marks were
//     carried over are unchanged; shape IDs stay valid because the new
//     generation interns into a table derived copy-on-write from the old
//     one (shapeTab.derive), which preserves every existing ID and only
//     appends.
//   - An SCC summary is reusable when its membership is unchanged, no
//     member's direct effects changed, and every outside callee's
//     summary is the identical *Effects. When a summary must be rebuilt
//     but its content comes out equal to the old one, the old object is
//     installed instead, so pointer equality keeps meaning content
//     equality upstream and a local change cannot cascade into
//     whole-graph resummarization.
//
// Still linear in the program: the per-procedure maps (callees,
// direct, byProc, returnsFresh, freshStores) are copied and the Tarjan
// condensation is recomputed over the whole call graph. Both are plain
// passes over pointers; the fixpoints, body scans, and summary unions
// are what the delta saves.
//
// Update never writes old: shared substructures (callee slices, direct
// and summary Effects, RTA records, fresh-store sets, the old shape
// table generation) are immutable once their construction finished,
// so queries in flight against the old ModRef remain correct while and
// after the new generation is built.

// modrefFP witnesses the global fact tables the mod-ref construction
// consults beyond procedure bodies. Every component is append-only
// under pass pipelines and server edits, so equal values imply the
// tables are identical to what the old build saw: the universe feeds
// dispatch cones, Merges feed the Refine narrowing's TypeRefsTable,
// AddressTakenVars feeds region candidacy in the freshness analysis,
// and the proc count pins ProcByName resolution.
type modrefFP struct {
	numTypes int
	merges   int
	addrVars int
	numProcs int
}

func modrefFPOf(prog *ir.Program) modrefFP {
	return modrefFP{
		numTypes: prog.Universe.NumTypes(),
		merges:   len(prog.Merges),
		addrVars: len(prog.AddressTakenVars),
		numProcs: len(prog.Procs),
	}
}

// Update builds a new ModRef over old's program after the given
// procedures' bodies were mutated, reusing the old call edges,
// freshness facts, direct effects, and SCC summaries of everything the
// mutation provably cannot have changed. cfg must request the same mode
// as old's (Refine may be a fresh closure; the fingerprint guarantees
// it answers identically).
//
// It returns the new ModRef plus the consumers: clean procedures for
// which some callee's summary object changed, whose cached flow facts
// (which consulted the old summary through CallEffects) the caller must
// invalidate. Dirty procedures are not listed — the caller already
// invalidates those. A nil ModRef means the delta preconditions do not
// hold (empty dirty set, mode mismatch, a global fact table grew, or
// the RTA instantiated set changed) and the caller must fall back to
// ComputeWith.
func Update(old *ModRef, cfg Config, dirty []*ir.Proc) (*ModRef, []*ir.Proc) {
	if old == nil || len(dirty) == 0 || old.direct == nil || old.sccOf == nil {
		return nil, nil
	}
	if cfg.RTA != old.cfg.RTA || cfg.OpenWorld != old.cfg.OpenWorld {
		return nil, nil
	}
	if modrefFPOf(old.prog) != old.fp {
		return nil, nil
	}
	prog := old.prog
	mr := &ModRef{
		prog:    prog,
		cfg:     cfg,
		byProc:  make(map[*ir.Proc]*Effects, len(prog.Procs)),
		direct:  make(map[*ir.Proc]*Effects, len(prog.Procs)),
		callees: make(map[*ir.Proc][]*ir.Proc, len(prog.Procs)),
		effMemo: make(map[dispatchKey]*Effects),
		fp:      old.fp,
	}
	if cfg.RTA && !cfg.OpenWorld && prog.Main != nil {
		if reuseRTA(old, dirty) {
			mr.inst, mr.reachable, mr.rtaIn = old.inst, old.reachable, old.rtaIn
		} else {
			mr.rta()
		}
	}
	// Dispatch must agree with the old build everywhere, or clean
	// procedures' call edges (and every summary above them) could
	// differ: the instantiated-type filter is the only dispatch input
	// not pinned by the fingerprint.
	if !bitsetEqual(mr.inst, old.inst) {
		return nil, nil
	}
	mr.shapes = old.shapes.derive()

	isDirty := make(map[*ir.Proc]bool, len(dirty))
	for _, p := range dirty {
		isDirty[p] = true
	}
	for _, p := range prog.Procs {
		if isDirty[p] {
			mr.callees[p] = mr.collectProcEdges(p)
		} else {
			mr.callees[p] = old.callees[p]
		}
	}
	// The condensation is linear in the graph; recompute it whole. What
	// is reused per-SCC below is the expensive part: fixpoints, body
	// scans, and summary unions.
	sccs := mr.tarjanSCCs()
	mr.recordSCCs(sccs)

	// sccUnchanged: the SCC has exactly the membership it had in the old
	// decomposition. A dirty procedure's edge change can merge or split
	// components that contain clean procedures, and freshness and
	// summary fixpoints are per-component, so membership equality is a
	// precondition for reusing either.
	sccUnchanged := func(scc []*ir.Proc) bool {
		id, ok := old.sccOf[scc[0]]
		if !ok || old.sccSize[id] != int32(len(scc)) {
			return false
		}
		for _, p := range scc[1:] {
			if oid, ok := old.sccOf[p]; !ok || oid != id {
				return false
			}
		}
		return true
	}

	// Freshness, bottom-up. freshRecomputed marks procedures whose
	// freshStores marks may differ from the old build's, which forces
	// their direct effects to be rescanned; freshChanged marks those
	// whose returnsFresh fact did change. Callee SCCs come first, so
	// when an SCC is reached every outside callee is final, and a
	// member not yet processed is in the SCC itself.
	freshRecomputed := make(map[*ir.Proc]bool)
	freshChanged := make(map[*ir.Proc]bool)
	if cfg.RTA {
		mr.freshStores = make(map[*ir.Proc]map[*ir.Instr]bool, len(old.freshStores))
		mr.returnsFresh = make(map[*ir.Proc]bool, len(prog.Procs))
		for _, scc := range sccs {
			reuse := sccUnchanged(scc) && !anyIn(scc, isDirty) && !mr.callsInto(scc, freshChanged)
			if reuse {
				for _, p := range scc {
					mr.returnsFresh[p] = old.returnsFresh[p]
					if fresh := old.freshStores[p]; fresh != nil {
						mr.freshStores[p] = fresh
					}
				}
				continue
			}
			mr.freshnessSCC(scc)
			for _, p := range scc {
				freshRecomputed[p] = true
				if mr.returnsFresh[p] != old.returnsFresh[p] {
					freshChanged[p] = true
				}
			}
		}
	}

	// Direct effects: rescan dirty bodies and bodies whose freshness
	// marks were recomputed; share the old object for everything else.
	// A rescan that reproduces the old content installs the old object,
	// so the pointer comparison in the summary pass below keeps meaning
	// "content changed".
	for _, p := range prog.Procs {
		od := old.direct[p]
		if !isDirty[p] && !freshRecomputed[p] {
			mr.direct[p] = od
			continue
		}
		nd := mr.collectDirectProc(p)
		if od != nil && !isDirty[p] && effectsEqual(nd, od) {
			nd = od
		}
		mr.direct[p] = nd
	}

	// Summaries, bottom-up. Reuse the old summary object when nothing
	// feeding it changed; otherwise rebuild, but install the old object
	// if the rebuilt content matches, stopping the cascade there.
	// sumChanged marks procedures whose summary object changed; as with
	// freshChanged, it holds only final summaries of earlier SCCs.
	sumChanged := make(map[*ir.Proc]bool)
	for _, scc := range sccs {
		var oldSum *Effects
		same := sccUnchanged(scc)
		if same {
			oldSum = old.byProc[scc[0]]
		}
		reuse := same && !mr.callsInto(scc, sumChanged)
		for _, p := range scc {
			if reuse && mr.direct[p] != old.direct[p] {
				reuse = false
			}
		}
		if reuse {
			for _, p := range scc {
				mr.byProc[p] = oldSum
			}
			continue
		}
		sum := mr.summarizeSCC(scc)
		if oldSum != nil && effectsEqual(sum, oldSum) {
			sum = oldSum // already materialized; never re-materialize a shared object
		} else {
			sum.materialize(mr.shapes)
		}
		for _, p := range scc {
			mr.byProc[p] = sum
			if sum != old.byProc[p] {
				sumChanged[p] = true
			}
		}
	}

	// Consumers: clean procedures one of whose callees' summary object
	// changed. Their flow facts consulted the old object (CallEffects)
	// and must be invalidated; pointer equality elsewhere guarantees
	// content equality, so everything unlisted saw identical effects.
	var consumers []*ir.Proc
	for _, p := range prog.Procs {
		if !isDirty[p] && mr.callsInto([]*ir.Proc{p}, sumChanged) {
			consumers = append(consumers, p)
		}
	}
	return mr, consumers
}

// anyIn reports whether some procedure of ps is in set.
func anyIn(ps []*ir.Proc, set map[*ir.Proc]bool) bool {
	for _, p := range ps {
		if set[p] {
			return true
		}
	}
	return false
}

// callsInto reports whether some procedure of ps calls into set; an
// empty set (the common case: nothing upstream changed) costs no edge
// scan.
func (mr *ModRef) callsInto(ps []*ir.Proc, set map[*ir.Proc]bool) bool {
	if len(set) == 0 {
		return false
	}
	for _, p := range ps {
		if anyIn(mr.callees[p], set) {
			return true
		}
	}
	return false
}

// effectsEqual reports whether two summaries describe the same effects:
// equal shape sets (IDs are stable across derived tables, so bitvec
// equality is shape equality), equal rebound globals, and equal flags.
// Equal content means equal verdicts from MayModify and MayRebind.
func effectsEqual(a, b *Effects) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Top != b.Top || a.WritesThroughLocs != b.WritesThroughLocs {
		return false
	}
	if len(a.ModGlobals) != len(b.ModGlobals) {
		return false
	}
	for g := range a.ModGlobals {
		if !b.ModGlobals[g] {
			return false
		}
	}
	return bitvecEqual(a.mods, b.mods) && bitvecEqual(a.refs, b.refs)
}

// bitvecEqual compares two shape bitsets, ignoring trailing zero words
// (the vectors grow lazily, so equal sets may have different lengths).
func bitvecEqual(a, b bitvec) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	for _, w := range b[len(a):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// bitsetEqual compares two instantiated-type bitsets; nil equals nil
// (no filter in either build).
func bitsetEqual(a, b types.Bitset) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if len(a) != len(b) {
		return false
	}
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}
