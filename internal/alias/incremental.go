package alias

import (
	"tbaa/internal/ir"
	"tbaa/internal/types"
)

// This file implements the incremental counterpart of New: rebuilding an
// Analysis after a known set of procedures was mutated, at a cost
// proportional to the mutated bodies instead of the module.
//
// The delta path is exact, not merely conservative: the differential
// gate demands that an incrementally rebuilt oracle answer byte-equal
// verdicts to a from-scratch build, so every reuse below is justified by
// an invariant, and anything the invariants cannot cover returns nil —
// the caller falls back to New, which is always exact. A dirty-set bug
// can therefore only cost performance (an unnecessary full rebuild or an
// unnecessarily large delta), never soundness.
//
// The reuse invariants:
//
//   - Context-free verdicts (the partition, typeCompat) depend
//     only on types and the program's global facts — Merges,
//     AddressTaken*, ByRefFormalTypes, the universe — never on which
//     instruction carries a path. All of those tables are append-only
//     under mutation, so equal lengths (the fingerprint) mean they are
//     identical, and every structure derived from them is reusable.
//   - Access-path identities are append-only (ir.ExtendAPs): surviving
//     paths keep their IID and class, fresh paths number strictly above
//     every old identity.
//   - Flow facts are per-procedure and intraprocedural; a solved
//     procFlow is immutable, so entries for untouched procedures carry
//     over by pointer. (Interprocedural staleness — facts that consulted
//     a callee summary that was since recomputed — is the caller's to
//     handle via InvalidateFlow; the pass environment invalidates every
//     procedure whose SCC was resummarized.)

// fingerprint is a cheap equality witness for the global facts the
// context-free analysis consults. Every component table is append-only
// during pass pipelines and server edits, so equal lengths imply
// identical contents.
type fingerprint struct {
	numTypes     int
	merges       int
	addrFields   int
	addrElems    int
	addrVars     int
	byRefFormals int
}

func fingerprintOf(prog *ir.Program) fingerprint {
	return fingerprint{
		numTypes:     prog.Universe.NumTypes(),
		merges:       len(prog.Merges),
		addrFields:   len(prog.AddressTakenFields),
		addrElems:    len(prog.AddressTakenElems),
		addrVars:     len(prog.AddressTakenVars),
		byRefFormals: len(prog.ByRefFormalTypes),
	}
}

// Update builds a new Analysis over old's program after the given
// procedures' bodies were mutated, reusing every structure the mutation
// cannot have changed: the TypeRefsTable, the AddressTaken indexes, the
// interned identities and alias classes of every surviving path, the
// compatibility bitmatrix (extended in place with rows for new classes
// only), and the flow facts of untouched procedures. It returns nil when the delta preconditions do not hold —
// the dirty set is empty (an unstamped mutation may be hiding), or a
// global fact table grew (new merges or address-taken facts can flip
// verdicts module-wide) — and the caller must fall back to New.
//
// The returned Analysis is a distinct generation: old is never written
// (shared substructures are immutable or internally synchronized), so
// queries in flight against old remain correct. Same single-threaded
// construction contract as New.
func Update(old *Analysis, dirty []*ir.Proc) *Analysis {
	if old == nil || old.noPart || len(dirty) == 0 {
		return nil
	}
	if fingerprintOf(old.prog) != old.fp {
		return nil
	}
	a := &Analysis{
		prog:       old.prog,
		u:          old.u,
		opts:       old.opts,
		typeRefs:   old.typeRefs,
		addrFields: old.addrFields,
		addrElems:  old.addrElems,
		addrOwners: old.addrOwners,
		fp:         old.fp,
	}
	a.apIdx = ir.ExtendAPs(old.prog, old.apIdx, dirty)
	if old.flow != nil {
		a.flow = newFlow(a)
		old.flow.mu.Lock()
		for p, e := range old.flow.procs {
			a.flow.procs[p] = e
		}
		old.flow.mu.Unlock()
		for _, p := range dirty {
			delete(a.flow.procs, p)
		}
	}
	// If old never built its partition there is nothing to extend; the
	// new generation builds lazily from the extended index as usual.
	if op := old.part.Load(); op != nil {
		a.part.Store(extendPartition(a, op))
	}
	return a
}

// extendPartition classifies the extended index against old's classes:
// surviving slots copy their classification verbatim, fresh paths join
// an existing class when their signature matches (two paths with equal
// signatures are indistinguishable to the case analysis, so the old
// representative answers for them) or found a new class. The
// compatibility matrix is shared outright when no class was added, and
// otherwise extended by running the case analysis only for pairs
// involving a new class — the O(C_new x C) sliver of the O(C^2) full
// build.
func extendPartition(a *Analysis, old *partition) *partition {
	idx := a.apIdx
	part := &partition{
		idx:  idx,
		aps:  idx.APs,
		cls:  make([]int32, idx.Len()+1),
		reps: append([]*ir.AP(nil), old.reps...),
	}
	classes := make(map[apSig]int32, len(old.reps))
	for ci, rep := range part.reps {
		classes[a.signature(rep)] = int32(ci)
	}
	oldN := len(old.aps)
	var fresh []int32
	for i, ap := range idx.APs {
		if ap == nil {
			part.cls[i+1] = -1
			continue
		}
		if i < oldN && old.aps[i] == ap {
			// Identities are append-only, so every old slot survives into
			// the extended table unchanged — including slots whose paths
			// the mutated bodies no longer carry (unreachable through any
			// current instruction; classOf validates pointers anyway).
			part.cls[i+1] = old.cls[i+1]
			continue
		}
		sig := a.signature(ap)
		ci, ok := classes[sig]
		if !ok {
			ci = int32(len(part.reps))
			classes[sig] = ci
			part.reps = append(part.reps, ap)
			fresh = append(fresh, ci)
		}
		part.cls[i+1] = ci
	}
	n := len(part.reps)
	if len(fresh) == 0 {
		part.compat = old.compat
		return part
	}
	part.compat = make([]types.Bitset, n)
	for i := range part.compat {
		b := types.NewBitset(n)
		if i < len(old.compat) {
			copy(b, old.compat[i])
		}
		part.compat[i] = b
	}
	for _, ci := range fresh {
		for j := int32(0); j < int32(n); j++ {
			if a.mayAliasCase(part.reps[ci], part.reps[j]) {
				part.compat[ci].Add(int(j))
				part.compat[j].Add(int(ci))
			}
		}
	}
	return part
}
