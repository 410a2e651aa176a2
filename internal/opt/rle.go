// Package opt implements the optimizations the paper evaluates TBAA with:
// redundant load elimination (RLE — loop-invariant load motion plus
// common-subexpression elimination of memory references, Section 3.4.1),
// partial redundancy elimination of memory expressions (PRE, the paper's
// future work), and method invocation resolution with inlining (Section
// 3.7).
//
// Redundancy has one definition, the available-load dataflow Avail, run
// three ways: RLE's CSE runs it with the must meet and removes the loads
// it finds available; PRE runs it with the must and the may meet and
// inserts loads where a path is available on some paths only; and the
// limit study (package limit) runs it must, may, and must with only
// variable writes killing, to classify the loads RLE leaves.
package opt

import (
	"fmt"

	"tbaa/internal/alias"
	"tbaa/internal/cfg"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
	"tbaa/internal/par"
)

// RLEResult reports what RLE removed.
type RLEResult struct {
	// Hoisted counts loop-invariant source-level loads moved to preheaders.
	Hoisted int
	// Eliminated counts loads replaced by register references (CSE).
	Eliminated int
	// PerProc breaks the total down by procedure name.
	PerProc map[string]int
}

// Removed returns the total number of statically removed loads
// (the paper's Table 6 metric).
func (r RLEResult) Removed() int { return r.Hoisted + r.Eliminated }

// RLE runs redundant load elimination over every procedure, using the
// given alias oracle and mod-ref summaries to decide what stores and
// calls kill. It mutates the program and stamps every procedure it
// changed with one Program.MarkMutated call.
//
// Procedures are optimized concurrently, across GOMAXPROCS workers. A
// procedure's rewrite reads only shared state that stays immutable
// during the pass (the oracle's partition and TypeRefsTable, the
// mod-ref summaries, AddressTakenVars) and writes only its own blocks,
// locals and flow facts, so the oracle and the summaries must be safe
// for concurrent queries (alias.Analysis and modref.ModRef are). The
// result, the rewritten program and the set of stamped procedures do
// not depend on GOMAXPROCS.
func RLE(prog *ir.Program, o alias.Oracle, mr *modref.ModRef) RLEResult {
	per := make([]procResult, len(prog.Procs))
	par.Do(len(prog.Procs), func(i int) {
		r, p := &per[i], prog.Procs[i]
		r.hoisted, r.changed = hoistLoads(prog, p, o, mr)
		r.eliminated = cseLoads(prog, p, o, mr)
		r.changed = r.changed || r.eliminated > 0
	})
	res := RLEResult{PerProc: make(map[string]int)}
	var changed []*ir.Proc
	for i, p := range prog.Procs {
		r := per[i]
		res.Hoisted += r.hoisted
		res.Eliminated += r.eliminated
		if n := r.hoisted + r.eliminated; n > 0 {
			res.PerProc[p.Name] = n
		}
		if r.changed {
			changed = append(changed, p)
		}
	}
	if len(changed) > 0 {
		prog.MarkMutated(changed...)
	}
	return res
}

// procResult is one procedure's share of a pass. changed reports
// whether its body was rewritten; the pass stamps it after the
// workers join, because the program's mutation clock is not safe for
// concurrent use.
type procResult struct {
	hoisted, eliminated int
	changed             bool
}

// ---------------------------------------------------------------------------
// Loop-invariant load motion

// hoistLoads moves loop-invariant loads to preheaders and reports how
// many source-level loads moved and whether the body changed (a
// preheader insertion changes it even when nothing moves).
func hoistLoads(prog *ir.Program, p *ir.Proc, o alias.Oracle, mr *modref.ModRef) (int, bool) {
	p.ComputeCFGEdges()
	dom := cfg.ComputeDominators(p)
	loops := cfg.FindLoops(p, dom)
	if len(loops) == 0 {
		return 0, false
	}
	changed := false
	ensurePreheader := func(l *cfg.Loop) {
		nBlocks := len(p.Blocks)
		cfg.EnsurePreheader(p, l)
		if len(p.Blocks) != nBlocks {
			changed = true
			alias.InvalidateFlow(o, p)
		}
	}
	for _, l := range loops {
		ensurePreheader(l)
	}
	// Preheader insertion changed the CFG; recompute.
	dom = cfg.ComputeDominators(p)
	domBlocks := len(p.Blocks)
	loops = cfg.FindLoops(p, dom)
	// Innermost first so hoisted loads can cascade outward.
	ordered := make([]*cfg.Loop, len(loops))
	copy(ordered, loops)
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			if ordered[j].Depth > ordered[i].Depth {
				ordered[i], ordered[j] = ordered[j], ordered[i]
			}
		}
	}
	total := 0
	for _, l := range ordered {
		ensurePreheader(l)
		if n := hoistFromLoop(prog, p, l, dom, o, mr); n > 0 {
			total += n
			changed = true
		}
		// Moving instructions does not change block structure, but a new
		// preheader does (EnsurePreheader only appends blocks).
		if len(p.Blocks) != domBlocks {
			dom = cfg.ComputeDominators(p)
			domBlocks = len(p.Blocks)
		}
	}
	return total, changed
}

type loopEnv struct {
	prog *ir.Program
	l    *cfg.Loop
	dom  *cfg.Dominators
	kill killRule
	// defs maps registers to their defining instruction inside the loop.
	defs map[ir.Reg]*ir.Instr
	// defBlock maps in-loop defining instructions to their blocks.
	defBlock map[*ir.Instr]*ir.Block
	// varsWritten are variables assigned inside the loop.
	varsWritten map[*ir.Var]bool
	// locsWritten reports a store through a location or a call that may
	// write through locations inside the loop.
	locsWritten bool
	// callTop reports a call in the loop whose summary is the sound top
	// (Effects.Top): it may additionally rebind any global.
	callTop bool
	// killers are the stores with a path and the calls inside the loop
	// (kept as instructions so kill queries carry their statement for
	// flow-sensitive oracles).
	killers []*ir.Instr
	// hoistMemo caches hoistability per instruction.
	hoistMemo map[*ir.Instr]bool
}

func hoistFromLoop(prog *ir.Program, p *ir.Proc, l *cfg.Loop, dom *cfg.Dominators, o alias.Oracle, mr *modref.ModRef) int {
	env := &loopEnv{
		prog: prog, l: l, dom: dom, kill: killRule{p: p, o: o, mr: mr, at: prog.AddressTakenVars},
		defs:        make(map[ir.Reg]*ir.Instr),
		defBlock:    make(map[*ir.Instr]*ir.Block),
		varsWritten: make(map[*ir.Var]bool),
		hoistMemo:   make(map[*ir.Instr]bool),
	}
	for b := range l.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if r := in.DefinedReg(); r != ir.NoReg {
				env.defs[r] = in
				env.defBlock[in] = b
			}
			switch in.Op {
			case ir.OpSetVar, ir.OpStoreVarField:
				env.varsWritten[in.Var] = true
				if in.Op == ir.OpStoreVarField && in.AP != nil {
					env.killers = append(env.killers, in)
				}
			case ir.OpStore:
				if in.AP != nil {
					env.killers = append(env.killers, in)
				}
				if in.Sel.Kind == ir.SelDeref {
					env.locsWritten = true
				}
			case ir.OpCall, ir.OpMethodCall:
				env.killers = append(env.killers, in)
				eff := mr.CallEffects(in)
				if eff != nil && eff.Top {
					// Nothing is known about the callee: it may rebind
					// any global and write through any location.
					env.callTop = true
					env.locsWritten = true
				}
				for g := range eff.ModGlobals {
					env.varsWritten[g] = true
				}
				if eff.WritesThroughLocs {
					env.locsWritten = true
				}
			}
		}
	}
	// Decide hoistability starting from source-level loads only; dope
	// loads ride along as dependencies (matching the paper's AST-level
	// expression granularity).
	var toMove []*ir.Instr
	moved := make(map[*ir.Instr]bool)
	sourceHoisted := 0
	for _, b := range p.Blocks { // procedure order, for deterministic hoisting
		if !l.Blocks[b] {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpLoad || in.AP == nil || in.AP.IsDope() || !env.hoistable(in) {
				continue
			}
			toMove = append(toMove, env.collectChain(in, moved)...)
			sourceHoisted++
		}
	}
	if len(toMove) == 0 {
		return 0
	}
	// Remove the moved instructions from their blocks. Only blocks that
	// lose an instruction get a new array; moveSet membership is by
	// pointer, captured before any rebuild.
	moveSet := make(map[*ir.Instr]bool, len(toMove))
	lost := make(map[*ir.Block]int)
	for _, in := range toMove {
		moveSet[in] = true
		lost[env.defBlock[in]]++
	}
	movedCopies := make(map[*ir.Instr]ir.Instr, len(toMove))
	for b, n := range lost {
		kept := make([]ir.Instr, 0, len(b.Instrs)-n)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if moveSet[in] {
				cp := *in
				cp.Speculative = true
				movedCopies[in] = cp
				continue
			}
			kept = append(kept, *in)
		}
		b.Instrs = kept
	}
	// Insert at the end of the preheader, before its terminator, in
	// dependency order.
	ph := l.Preheader
	term := ph.Instrs[len(ph.Instrs)-1]
	body := ph.Instrs[:len(ph.Instrs)-1]
	for _, in := range toMove {
		body = append(body, movedCopies[in])
	}
	ph.Instrs = append(body, term)
	// The rebuilt instruction slices orphan any per-statement flow facts.
	alias.InvalidateFlow(o, p)
	return sourceHoisted
}

// collectChain returns in (and its not-yet-collected load dependencies)
// in dependency-first order.
func (env *loopEnv) collectChain(in *ir.Instr, moved map[*ir.Instr]bool) []*ir.Instr {
	var chain []*ir.Instr
	var walk func(i *ir.Instr)
	walk = func(i *ir.Instr) {
		if moved[i] {
			return
		}
		moved[i] = true
		if i.Base.Kind == ir.RegOp {
			if def := env.defs[i.Base.Reg]; def != nil {
				walk(def)
			}
		}
		chain = append(chain, i)
	}
	walk(in)
	return chain
}

// hoistable decides whether a load can move to the preheader.
func (env *loopEnv) hoistable(in *ir.Instr) bool {
	if v, ok := env.hoistMemo[in]; ok {
		return v
	}
	env.hoistMemo[in] = false // cycle guard
	ok := env.hoistableUncached(in)
	env.hoistMemo[in] = ok
	return ok
}

func (env *loopEnv) hoistableUncached(in *ir.Instr) bool {
	if in.Op != ir.OpLoad || in.AP == nil {
		return false
	}
	// Must execute on every iteration (paper Section 3.4.1): its block
	// dominates every latch.
	b := env.defBlock[in]
	if b == nil {
		// Loads without destinations do not exist; defBlock covers all.
		return false
	}
	for _, latch := range env.l.Latches {
		if !env.dom.Dominates(b, latch) {
			return false
		}
	}
	// Nothing in the loop may overwrite the loaded location. Dope-vector
	// fields are immutable after allocation, so only source-level paths
	// need the store/call check.
	if !in.AP.IsDope() {
		if env.killedInLoop(in.AP) {
			return false
		}
	}
	// The base must be invariant: a constant, an unmodified variable, or
	// a register defined outside the loop or by a hoistable load.
	if !env.invariantOperand(in.Base, true) {
		return false
	}
	if in.Sel.Kind == ir.SelIndex && !env.invariantOperand(in.Sel.Index, false) {
		return false
	}
	return true
}

func (env *loopEnv) invariantOperand(o ir.Operand, allowLoadChain bool) bool {
	switch o.Kind {
	case ir.ConstOp, ir.NoOperand:
		return true
	case ir.VarOp:
		v := o.Var
		if env.varsWritten[v] {
			return false
		}
		if env.locsWritten && env.prog.AddressTakenVars[v] {
			return false
		}
		if env.callTop && v.Kind == ir.GlobalVar {
			return false
		}
		return true
	case ir.RegOp:
		def := env.defs[o.Reg]
		if def == nil {
			return true // defined outside the loop
		}
		if allowLoadChain && def.Op == ir.OpLoad {
			return env.hoistable(def)
		}
		return false
	}
	return false
}

// killedInLoop reports whether any store, variable write, or call in the
// loop may overwrite ap or a variable it depends on. ap's root is
// loop-invariant (hoistableUncached rejects written bases first), so
// evaluating it at each killing statement's site is exact.
func (env *loopEnv) killedInLoop(ap *ir.AP) bool {
	at := env.prog.AddressTakenVars
	for v := range env.varsWritten {
		if modref.VarWriteKills(ap, v, at) {
			return true
		}
	}
	for _, in := range env.killers {
		if env.kill.kills(in, ap) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Available-load CSE

// cseLoads removes loads whose path is available on every incoming
// path and reports how many it removed. Only blocks holding a removed
// load or a gen that must feed a shadow variable are rewritten.
func cseLoads(prog *ir.Program, p *ir.Proc, o alias.Oracle, mr *modref.ModRef) int {
	a := NewAvail(prog, p, o, mr, true)
	n := len(a.classes)
	if n == 0 {
		return 0
	}
	// Find the redundant loads and the classes that need shadow
	// variables.
	redundant := make(map[*ir.Instr]int32)
	needShadow := make([]bool, n)
	a.Solve(Must, true).Loads(func(b *ir.Block, i int, cls int32, avail bool) {
		if avail {
			redundant[&b.Instrs[i]] = cls
			needShadow[cls] = true
		}
	})
	if len(redundant) == 0 {
		return 0
	}
	shadows := make([]*ir.Var, n)
	for cls, ap := range a.classes {
		if !needShadow[cls] {
			continue
		}
		shadows[cls] = &ir.Var{
			Name: fmt.Sprintf("$rle%d", cls),
			Type: ap.Type(),
			Kind: ir.LocalVar,
			Slot: len(p.Params) + len(p.Locals),
		}
		p.Locals = append(p.Locals, shadows[cls])
	}
	// Rewrite the blocks holding a redundant load or a gen whose class
	// feeds a shadow; every other block keeps its array.
	for _, b := range a.rpo {
		g := a.gen[b]
		reds, inserts := 0, 0
		for i, cls := range g {
			if cls < 0 || !needShadow[cls] {
				continue
			}
			if _, isRed := redundant[&b.Instrs[i]]; isRed {
				reds++
			} else {
				inserts++
			}
		}
		if reds+inserts == 0 {
			continue
		}
		out := make([]ir.Instr, 0, len(b.Instrs)+inserts)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if rcls, isRed := redundant[in]; isRed {
				// Replace the load with a copy from the shadow variable.
				out = append(out, ir.Instr{
					Op: ir.OpCopy, Dst: in.Dst,
					Args: []ir.Operand{ir.V(shadows[rcls])},
					Type: in.Type, Pos: in.Pos,
				})
				continue
			}
			out = append(out, *in)
			if cls := g[i]; cls >= 0 && needShadow[cls] {
				sh := shadows[cls]
				switch in.Op {
				case ir.OpLoad, ir.OpLoadVarField:
					out = append(out, ir.Instr{Op: ir.OpSetVar, Var: sh,
						Args: []ir.Operand{ir.R(in.Dst)}, Pos: in.Pos})
				case ir.OpStore, ir.OpStoreVarField:
					out = append(out, ir.Instr{Op: ir.OpSetVar, Var: sh,
						Args: []ir.Operand{in.Args[0]}, Pos: in.Pos})
				}
			}
		}
		b.Instrs = out
	}
	alias.InvalidateFlow(o, p)
	return len(redundant)
}
