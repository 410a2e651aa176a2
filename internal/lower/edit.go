package lower

import (
	"tbaa/internal/ir"
	"tbaa/internal/sema"
	"tbaa/internal/types"
)

// LowerProcInto re-lowers one checked procedure into an existing
// program, replacing the body of the ir.Proc with the same name in
// place. It is the lowering half of the incremental edit path: the
// *ir.Proc pointer is preserved (call instructions resolve callees by
// name, and the analyses key their per-procedure state by pointer), the
// rest of the program is untouched, and the procedure is stamped via
// MarkMutated so the next Invalidate rebuilds from a one-procedure
// dirty set.
//
// The program-wide fact tables stay append-only: Merges gains only
// pairs not already recorded (re-lowering an unchanged assignment must
// not grow the table, or the alias fingerprint would flip and force a
// full rebuild for nothing), and the address-taken tables are
// keyed maps, so re-recording an existing field or formal is a no-op.
// A genuinely new merge pair or address-taken local does grow its
// table — which flips the fingerprint and correctly forces the
// full-rebuild fallback, trading speed for soundness, never the
// reverse.
func LowerProcInto(prog *ir.Program, sp *sema.Program, proc *sema.Procedure) *ir.Proc {
	lw := &lowerer{sp: sp, prog: prog, varMap: make(map[*sema.VarSym]*ir.Var)}
	// Globals were lowered index-wise from sp.Globals; rebuild the
	// symbol map the expression lowerer resolves through.
	for i, g := range sp.Globals {
		lw.varMap[g] = prog.Globals[i]
	}
	ip := prog.ProcByName[proc.Name]
	ip.Params, ip.Locals, ip.Blocks, ip.Entry, ip.NumRegs = nil, nil, nil, nil, 0
	ip.Result = proc.Result
	ip.MethodOf = proc.MethodOf
	preMerges := len(prog.Merges)
	lw.lowerProc(proc, ip)
	prog.Merges = dedupMerges(prog.Merges, preMerges)
	prog.MarkMutated(ip)
	return ip
}

// dedupMerges drops entries appended after pre that duplicate an
// earlier pair. Merge feeds a set union (type-group merging), so
// duplicates are semantics-free; they are removed only to keep the
// table length stable across re-lowerings of an unchanged body. The
// set holds only the appended suffix — one procedure's merges — and
// the prefix is only scanned, until every appended pair is found: a
// bitset of the suffix's target type IDs keeps the hash probes to
// prefix entries that can match.
func dedupMerges(merges []ir.Merge, pre int) []ir.Merge {
	if pre == len(merges) {
		return merges
	}
	type pair struct{ dst, src int }
	dup := make(map[pair]bool, len(merges)-pre) // suffix pair → recorded earlier
	var dsts types.Bitset
	for _, m := range merges[pre:] {
		dup[pair{m.Dst.ID(), m.Src.ID()}] = false
		dsts.Add(m.Dst.ID())
	}
	unseen := len(dup)
	for _, m := range merges[:pre] {
		if unseen == 0 {
			break // every appended pair is already recorded
		}
		if !dsts.Has(m.Dst.ID()) {
			continue
		}
		k := pair{m.Dst.ID(), m.Src.ID()}
		if seen, ok := dup[k]; ok && !seen {
			dup[k] = true
			unseen--
		}
	}
	out := merges[:pre]
	for _, m := range merges[pre:] {
		k := pair{m.Dst.ID(), m.Src.ID()}
		if dup[k] {
			continue
		}
		dup[k] = true
		out = append(out, m)
	}
	return out
}
