package alias

import (
	"sync"

	"tbaa/internal/ir"
	"tbaa/internal/par"
	"tbaa/internal/types"
)

// Ref is one static heap memory reference (a source-level load or store
// through a pointer).
type Ref struct {
	Proc  *ir.Proc
	Instr *ir.Instr
	AP    *ir.AP
}

// References collects every source-level heap memory reference in the
// program: loads and stores through pointers, excluding the implicit
// dope-vector accesses (which do not appear in the paper's AST-level
// representation) and excluding record-variable accesses (stack, not heap).
func References(prog *ir.Program) []Ref {
	var refs []Ref
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op != ir.OpLoad && in.Op != ir.OpStore {
					continue
				}
				if in.AP == nil || in.AP.IsDope() {
					continue
				}
				refs = append(refs, Ref{Proc: p, Instr: in, AP: in.AP})
			}
		}
	}
	return refs
}

// PairCounts are the Table 5 metrics.
type PairCounts struct {
	References int
	// Local counts intraprocedural may-alias pairs: pairs of distinct
	// references within the same procedure that may alias.
	Local int
	// Global counts may-alias pairs over all references in the program
	// (the paper's interprocedural "G Alias" column).
	Global int
}

// CountPairs computes the paper's static alias-pair metrics for an oracle.
// Each reference trivially aliases itself; self-pairs are excluded.
// Site-aware oracles (FSTypeRefs) are queried with each reference's own
// statement, so flow-sensitive narrowing shrinks the counts.
//
// An Analysis answers through its partition oracle: at flow-insensitive
// levels the quadratic sweep collapses to class-size arithmetic, and at
// the flow-sensitive levels the per-site refinement batches references
// per procedure and fans the work across a worker pool. Both produce
// exactly the counts the pairwise oracle sweep would.
func CountPairs(prog *ir.Program, o Oracle) PairCounts {
	if a, ok := o.(*Analysis); ok && !a.noPart {
		return a.countPairs(prog)
	}
	return countPairsGeneric(prog, o)
}

// countPairsGeneric is the reference implementation: one MayAliasAt
// query per pair of references.
func countPairsGeneric(prog *ir.Program, o Oracle) PairCounts {
	refs := References(prog)
	pc := PairCounts{References: len(refs)}
	for i := 0; i < len(refs); i++ {
		for j := i + 1; j < len(refs); j++ {
			if !MayAliasAt(o, refs[i].AP, Site{Proc: refs[i].Proc, Instr: refs[i].Instr},
				refs[j].AP, Site{Proc: refs[j].Proc, Instr: refs[j].Instr}) {
				continue
			}
			pc.Global++
			if refs[i].Proc == refs[j].Proc {
				pc.Local++
			}
		}
	}
	return pc
}

// countPairs is the partition-accelerated sweep.
func (a *Analysis) countPairs(prog *ir.Program) PairCounts {
	refs := References(prog)
	part := a.partition()
	cls := make([]int32, len(refs))
	for i := range refs {
		c := part.classOf(refs[i].AP)
		if c < 0 {
			// The program grew paths after this analysis was built (a
			// stale analysis over a mutated program); answer with the
			// reference sweep rather than a partial partition.
			return countPairsGeneric(prog, a)
		}
		cls[i] = c
	}
	if a.flow == nil {
		return countPairsArithmetic(refs, cls, part)
	}
	return a.countPairsFlow(refs, cls, part)
}

// countPairsArithmetic computes the flow-insensitive metrics without a
// single oracle query: references of one class are interchangeable, so
// the global count is a sum over compatible class pairs of the product
// of their populations, and the local count repeats that per procedure.
func countPairsArithmetic(refs []Ref, cls []int32, part *partition) PairCounts {
	pc := PairCounts{References: len(refs)}
	n := len(part.reps)
	cnt := make([]int, n)
	for _, c := range cls {
		cnt[c]++
	}
	for c1 := 0; c1 < n; c1++ {
		n1 := cnt[c1]
		if n1 == 0 {
			continue
		}
		if part.compat[c1].Has(c1) {
			pc.Global += n1 * (n1 - 1) / 2
		}
		for c2 := c1 + 1; c2 < n; c2++ {
			if cnt[c2] != 0 && part.compat[c1].Has(c2) {
				pc.Global += n1 * cnt[c2]
			}
		}
	}
	// Local pairs: the same arithmetic per procedure. References stay
	// grouped by procedure in program order, so each group is one
	// contiguous run of the refs slice.
	for lo := 0; lo < len(refs); {
		hi := lo + 1
		for hi < len(refs) && refs[hi].Proc == refs[lo].Proc {
			hi++
		}
		for i := lo; i < hi; i++ {
			row := part.compat[cls[i]]
			for j := i + 1; j < hi; j++ {
				if row.Has(int(cls[j])) {
					pc.Local++
				}
			}
		}
		lo = hi
	}
	return pc
}

// countPairsFlow computes the site-anchored metrics (FSTypeRefs and
// above): the partition answers the context-free half, and the
// flow-sensitive refinement is evaluated from per-reference narrowed
// sets. Two references with the same alias class and the same narrowed
// set are interchangeable in every pair predicate, so the global count
// collapses to arithmetic over (class, set) groups — the O(R²)
// all-references sweep this replaces dominated CountPairs on large
// modules. The local count stays a direct sweep per procedure, whose
// runs are small; partial sums of integers make the result identical
// for any worker count.
func (a *Analysis) countPairsFlow(refs []Ref, cls []int32, part *partition) PairCounts {
	pc := PairCounts{References: len(refs)}
	var procs []*ir.Proc
	seen := make(map[*ir.Proc]bool)
	for i := range refs {
		if p := refs[i].Proc; !seen[p] {
			seen[p] = true
			procs = append(procs, p)
		}
	}
	par.Do(len(procs), func(i int) { a.flow.factsFor(procs[i]) })
	// sets[i] is the narrowed allocated-type set of refs[i]'s root at its
	// site, or nil when the refinement cannot speak for it — exactly the
	// inputs of flow.disjoint.
	sets := make([]types.Bitset, len(refs))
	for i := range refs {
		if rootOwned(refs[i].AP) {
			sets[i] = a.flow.valueSet(refs[i].AP.Root, Site{Proc: refs[i].Proc, Instr: refs[i].Instr})
		}
	}
	// Intern the distinct narrowed sets (hash, confirmed by Equal), then
	// group references by (class, set). An imperfect dedup only splits a
	// group in two — the arithmetic stays exact.
	setID := make([]int32, len(refs))
	var distinct []types.Bitset
	byHash := make(map[uint64][]int32)
	for i := range refs {
		s := sets[i]
		if s == nil {
			setID[i] = -1
			continue
		}
		h := hashBitset(s)
		id := int32(-1)
		for _, cand := range byHash[h] {
			if distinct[cand].Equal(s) {
				id = cand
				break
			}
		}
		if id < 0 {
			id = int32(len(distinct))
			distinct = append(distinct, s)
			byHash[h] = append(byHash[h], id)
		}
		setID[i] = id
	}
	type group struct {
		cls int32
		set types.Bitset // nil when the refinement cannot speak
		n   int
	}
	gIndex := make(map[[2]int32]int32)
	var groups []group
	for i := range refs {
		key := [2]int32{cls[i], setID[i]}
		gi, ok := gIndex[key]
		if !ok {
			gi = int32(len(groups))
			gIndex[key] = gi
			groups = append(groups, group{cls: cls[i], set: sets[i]})
		}
		groups[gi].n++
	}
	// The pair predicate on groups, mirroring the reference sweep: class
	// compatibility plus non-disjoint narrowed sets.
	pairOK := func(g1, g2 *group) bool {
		if !part.compat[g1.cls].Has(int(g2.cls)) {
			return false
		}
		return g1.set == nil || g2.set == nil || g1.set.Intersects(g2.set)
	}
	workers := 1
	if len(groups) >= 64 {
		workers = par.Workers(len(groups))
	}
	globals := make([]int, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			global := 0
			for gi := w; gi < len(groups); gi += workers {
				g1 := &groups[gi]
				if pairOK(g1, g1) {
					global += g1.n * (g1.n - 1) / 2
				}
				for gj := gi + 1; gj < len(groups); gj++ {
					if g2 := &groups[gj]; pairOK(g1, g2) {
						global += g1.n * g2.n
					}
				}
			}
			globals[w] = global
		}(w)
	}
	wg.Wait()
	for _, g := range globals {
		pc.Global += g
	}
	// Local pairs: references stay grouped by procedure in program
	// order, so each procedure is one contiguous run; sweep the runs in
	// parallel.
	var runs [][2]int
	for lo := 0; lo < len(refs); {
		hi := lo + 1
		for hi < len(refs) && refs[hi].Proc == refs[lo].Proc {
			hi++
		}
		runs = append(runs, [2]int{lo, hi})
		lo = hi
	}
	locals := make([]int, len(runs))
	par.Do(len(runs), func(k int) {
		lo, hi := runs[k][0], runs[k][1]
		local := 0
		for i := lo; i < hi; i++ {
			row := part.compat[cls[i]]
			si := sets[i]
			for j := i + 1; j < hi; j++ {
				if !row.Has(int(cls[j])) {
					continue
				}
				if si != nil && sets[j] != nil && !si.Intersects(sets[j]) {
					continue
				}
				local++
			}
		}
		locals[k] = local
	})
	for _, l := range locals {
		pc.Local += l
	}
	return pc
}

// hashBitset is an FNV-1a fold of the bitset's words, used only to
// bucket candidate duplicates for Equal confirmation.
func hashBitset(s types.Bitset) uint64 {
	h := uint64(1469598103934665603)
	for _, w := range s {
		h ^= w
		h *= 1099511628211
	}
	return h
}
