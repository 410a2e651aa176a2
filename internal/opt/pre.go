package opt

import (
	"tbaa/internal/alias"
	"tbaa/internal/cfg"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
	"tbaa/internal/par"
)

// PREResult reports what partial redundancy elimination did.
type PREResult struct {
	// Inserted counts compensation loads placed on predecessor edges.
	Inserted int
	// Eliminated counts loads removed by the CSE pass that runs after
	// insertion (including ones the insertions made fully redundant).
	Eliminated int
}

// PRE implements the paper's "future work": partial redundancy
// elimination of memory expressions. A load that is available on some
// but not all paths (the Figure 10 "Conditional" category) becomes fully
// redundant after compensation loads are inserted on the unavailable
// predecessor edges; the regular available-load pass then removes it.
//
// Compensation loads are marked speculative (they may execute on paths
// the original did not take), so only access paths that can be safely
// re-materialized from variables are candidates: paths whose base
// operand is a variable and whose subscripts are variables or constants.
// Critical edges are split so insertions do not lengthen unrelated paths.
//
// Both phases run their per-procedure work across GOMAXPROCS workers,
// under the same contract as RLE: the oracle and the summaries must be
// safe for concurrent queries, and the result, the rewritten program
// and the procedures stamped by the one closing Program.MarkMutated
// call do not depend on GOMAXPROCS.
func PRE(prog *ir.Program, o alias.Oracle, mr *modref.ModRef) PREResult {
	inserted := make([]int, len(prog.Procs))
	par.Do(len(prog.Procs), func(i int) { inserted[i] = preProc(prog, prog.Procs[i], o, mr) })
	eliminated := make([]int, len(prog.Procs))
	par.Do(len(prog.Procs), func(i int) { eliminated[i] = cseLoads(prog, prog.Procs[i], o, mr) })
	var res PREResult
	var changed []*ir.Proc
	for i, p := range prog.Procs {
		res.Inserted += inserted[i]
		res.Eliminated += eliminated[i]
		if inserted[i] > 0 || eliminated[i] > 0 {
			changed = append(changed, p)
		}
	}
	if len(changed) > 0 {
		prog.MarkMutated(changed...)
	}
	return res
}

func preProc(prog *ir.Program, p *ir.Proc, o alias.Oracle, mr *modref.ModRef) int {
	p.ComputeCFGEdges()
	// Collect classes exactly as CSE does.
	var classes []*ir.AP
	classOf := func(ap *ir.AP) int {
		for i, c := range classes {
			if c.Equal(ap) {
				return i
			}
		}
		classes = append(classes, ap)
		return len(classes) - 1
	}
	type site struct {
		b   *ir.Block
		idx int
	}
	gen := make(map[site]int)
	// materializable tracks whether a class's load can be re-created
	// from scratch at an arbitrary program point.
	materializable := map[int]bool{}
	var sampleLoad = map[int]*ir.Instr{}
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpLoad, ir.OpLoadVarField, ir.OpStore, ir.OpStoreVarField:
				if in.AP == nil || in.AP.IsDope() {
					continue
				}
				c := classOf(in.AP)
				gen[site{b, i}] = c
				if in.Op == ir.OpLoad && rematerializable(in) {
					materializable[c] = true
					if sampleLoad[c] == nil {
						sampleLoad[c] = in
					}
				}
			}
		}
	}
	n := len(classes)
	if n == 0 {
		return 0
	}
	at := prog.AddressTakenVars
	kills := func(avail []bool, in *ir.Instr) {
		site := alias.Site{Proc: p, Instr: in}
		switch in.Op {
		case ir.OpSetVar:
			for i, c := range classes {
				if avail[i] && modref.VarWriteKills(c, in.Var, at) {
					avail[i] = false
				}
			}
		case ir.OpStore, ir.OpStoreVarField:
			st := in.AP
			if st == nil {
				for i := range avail {
					avail[i] = false
				}
				return
			}
			isDeref := in.Op == ir.OpStore && in.Sel.Kind == ir.SelDeref
			for i, c := range classes {
				if !avail[i] {
					continue
				}
				if modref.StoreKills(o, c, site, st, site) {
					avail[i] = false
				} else if isDeref && modref.LocStoreKills(c, st.Type().ID(), at) {
					avail[i] = false
				}
			}
		case ir.OpCall, ir.OpMethodCall:
			eff := mr.CallEffects(in)
			for i, c := range classes {
				if avail[i] && modref.MayModify(eff, c, site, o, at) {
					avail[i] = false
				}
			}
		}
	}
	transfer := func(b *ir.Block, avail []bool) {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			c, isGen := gen[site{b, i}]
			if (in.Op == ir.OpLoad || in.Op == ir.OpLoadVarField) && isGen {
				avail[c] = true
				continue
			}
			kills(avail, in)
			if isGen {
				avail[c] = true
			}
		}
	}
	// Two dataflows: must (∩) and may (∪).
	solve := func(union bool) map[*ir.Block][]bool {
		rpo := cfg.ReversePostorder(p)
		out := make(map[*ir.Block][]bool, len(rpo))
		for _, b := range rpo {
			s := make([]bool, n)
			if b != p.Entry && !union {
				for i := range s {
					s[i] = true
				}
			}
			out[b] = s
		}
		meetIn := func(b *ir.Block) []bool {
			in := make([]bool, n)
			if b == p.Entry {
				return in
			}
			if union {
				for _, pred := range b.Preds {
					if po := out[pred]; po != nil {
						for i := 0; i < n; i++ {
							if po[i] {
								in[i] = true
							}
						}
					}
				}
			} else {
				for i := 0; i < n; i++ {
					in[i] = true
				}
				for _, pred := range b.Preds {
					if po := out[pred]; po != nil {
						for i := 0; i < n; i++ {
							if !po[i] {
								in[i] = false
							}
						}
					}
				}
			}
			return in
		}
		for changed := true; changed; {
			changed = false
			for _, b := range rpo {
				s := meetIn(b)
				transfer(b, s)
				if !boolsEqual(s, out[b]) {
					out[b] = s
					changed = true
				}
			}
		}
		// Convert outs to ins for the caller.
		ins := make(map[*ir.Block][]bool, len(rpo))
		for _, b := range rpo {
			ins[b] = meetIn(b)
		}
		return ins
	}
	mustIn := solve(false)
	mayIn := solve(true)
	mustOutOf := func(b *ir.Block) []bool {
		s := make([]bool, n)
		copy(s, mustIn[b])
		transfer(b, s)
		return s
	}

	// Find candidate (block, class) pairs: a load of c at the top of b
	// (no prior kill or gen of c in b) with mayIn && !mustIn.
	type want struct {
		b *ir.Block
		c int
	}
	var wants []want
	seen := map[want]bool{}
	for _, b := range p.Blocks {
		if mustIn[b] == nil {
			continue // unreachable
		}
		dirty := make([]bool, n)
		avail := make([]bool, n)
		copy(avail, mustIn[b])
		for i := range b.Instrs {
			in := &b.Instrs[i]
			c, isGen := gen[site{b, i}]
			if (in.Op == ir.OpLoad || in.Op == ir.OpLoadVarField) && isGen {
				if !dirty[c] && !avail[c] && mayIn[b][c] && materializable[c] {
					w := want{b, c}
					if !seen[w] {
						seen[w] = true
						wants = append(wants, w)
					}
				}
				avail[c] = true
				dirty[c] = true
				continue
			}
			before := make([]bool, n)
			copy(before, avail)
			kills(avail, in)
			for k := 0; k < n; k++ {
				if before[k] != avail[k] {
					dirty[k] = true
				}
			}
			if isGen {
				avail[c] = true
				dirty[c] = true
			}
		}
	}
	if len(wants) == 0 {
		return 0
	}

	inserted := 0
	for _, w := range wants {
		// Insert a compensation load on each predecessor lacking c.
		for _, pred := range append([]*ir.Block{}, w.b.Preds...) {
			if mustOutOf(pred)[w.c] {
				continue
			}
			target := pred
			if len(pred.Succs) > 1 {
				target = splitEdge(p, pred, w.b)
			}
			ld := *sampleLoad[w.c]
			ld.Dst = p.NewReg()
			ld.Speculative = true
			term := target.Instrs[len(target.Instrs)-1]
			target.Instrs = append(target.Instrs[:len(target.Instrs)-1], ld, term)
			inserted++
		}
	}
	p.ComputeCFGEdges()
	if inserted > 0 {
		alias.InvalidateFlow(o, p)
	}
	return inserted
}

// rematerializable reports whether the load can be re-emitted at another
// program point: its base and subscript are variables or constants
// (registers would not be available elsewhere).
func rematerializable(in *ir.Instr) bool {
	if in.Base.Kind == ir.RegOp {
		return false
	}
	if in.Sel.Kind == ir.SelIndex && in.Sel.Index.Kind == ir.RegOp {
		return false
	}
	return true
}

// splitEdge inserts a block on the pred→succ edge and returns it.
func splitEdge(p *ir.Proc, pred, succ *ir.Block) *ir.Block {
	nb := &ir.Block{ID: len(p.Blocks), Name: "pre.edge"}
	p.Blocks = append(p.Blocks, nb)
	nb.Instrs = []ir.Instr{{Op: ir.OpJump, Target: succ}}
	t := &pred.Instrs[len(pred.Instrs)-1]
	switch t.Op {
	case ir.OpJump:
		if t.Target == succ {
			t.Target = nb
		}
	case ir.OpBranch:
		if t.Then == succ {
			t.Then = nb
		}
		if t.Else == succ {
			t.Else = nb
		}
	}
	p.ComputeCFGEdges()
	return nb
}
