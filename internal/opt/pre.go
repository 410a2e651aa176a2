package opt

import (
	"tbaa/internal/alias"
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
	a := NewAvail(prog, p, o, mr, true)
	n := len(a.classes)
	if n == 0 {
		return 0
	}
	// sampleLoad[c] is the first load of class c that can be re-created
	// at an arbitrary program point, or nil when there is none.
	sampleLoad := make([]*ir.Instr, n)
	for _, b := range p.Blocks {
		for i, c := range a.gen[b] {
			if in := &b.Instrs[i]; c >= 0 && sampleLoad[c] == nil && in.Op == ir.OpLoad && rematerializable(in) {
				sampleLoad[c] = in
			}
		}
	}
	must, may := a.Solve(Must, true), a.Solve(May, true)

	// Find candidate (block, class) pairs: a load of c before any gen of
	// c in a reachable block b, with c available on some path into b
	// but not on all, and not killed in b before the load. Compensation
	// loads on b's predecessors make only such a load redundant: what
	// they supply dies at the kill.
	type want struct {
		b *ir.Block
		c int32
	}
	var wants []want
	genned := make([]bool, n)
	live := make([]bool, n) // not killed since b's entry
	for _, b := range p.Blocks {
		k, ok := a.order[b]
		if !ok {
			continue // unreachable
		}
		clear(genned)
		for c := range live {
			live[c] = true
		}
		for i, c := range a.gen[b] {
			in := &b.Instrs[i]
			load := c >= 0 && (in.Op == ir.OpLoad || in.Op == ir.OpLoadVarField)
			if load && !genned[c] && live[c] && !must.in[k][c] && may.in[k][c] && sampleLoad[c] != nil {
				wants = append(wants, want{b, c})
			}
			if !load {
				a.kill.apply(in, a.classes, live, true)
			}
			if c >= 0 {
				genned[c] = true
			}
		}
	}
	if len(wants) == 0 {
		return 0
	}

	// mustOut recomputes the must-available set on exit from a
	// predecessor as the block now stands: an earlier insertion may have
	// moved its instructions, and flow facts are keyed by instruction. A
	// block the solve did not reach starts from nothing, and one split
	// off an edge below generates nothing.
	mustOut := func(b *ir.Block) []bool {
		s := make([]bool, n)
		if k, ok := a.order[b]; ok {
			copy(s, must.in[k])
		}
		a.transfer(b, s, true, nil)
		return s
	}
	inserted := 0
	for _, w := range wants {
		// Insert a compensation load on each predecessor lacking c.
		for _, pred := range append([]*ir.Block{}, w.b.Preds...) {
			if mustOut(pred)[w.c] {
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
