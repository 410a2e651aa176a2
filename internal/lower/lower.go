// Package lower translates checked MiniM3 ASTs into the CFG IR.
//
// Lowering makes every memory access explicit: open-array subscripts
// expand into dope-vector loads (tagged so analyses can tell implicit
// accesses from source-level ones), AND/OR become control flow, and
// aggregate record assignments are broken into per-field accesses — the
// same decomposition the paper's whole-program optimizer performs.
// It also records every address-taking construct (WITH aliases and
// pass-by-reference actuals) for the alias analyses' AddressTaken.
package lower

import (
	"fmt"

	"tbaa/internal/ast"
	"tbaa/internal/ir"
	"tbaa/internal/sema"
	"tbaa/internal/token"
	"tbaa/internal/types"
)

// Lower translates a checked program to IR.
func Lower(p *sema.Program) *ir.Program {
	lw := &lowerer{
		sp: p,
		prog: &ir.Program{
			Name:               p.Module.Name,
			Universe:           p.Universe,
			ProcByName:         make(map[string]*ir.Proc),
			AddressTakenFields: make(map[ir.FieldKey]bool),
			AddressTakenElems:  make(map[int]bool),
			AddressTakenVars:   make(map[*ir.Var]bool),
		},
		varMap: make(map[*sema.VarSym]*ir.Var),
	}
	lw.prog.ByRefFormalTypes = make(map[int]bool)
	for _, g := range p.Globals {
		v := &ir.Var{Name: g.Name, Type: g.Type, Kind: ir.GlobalVar, Slot: len(lw.prog.Globals)}
		lw.prog.Globals = append(lw.prog.Globals, v)
		lw.varMap[g] = v
	}
	// Declare all procedures first so calls resolve.
	for _, proc := range p.Procs {
		ip := &ir.Proc{Name: proc.Name, Result: proc.Result, MethodOf: proc.MethodOf}
		lw.prog.Procs = append(lw.prog.Procs, ip)
		lw.prog.ProcByName[proc.Name] = ip
	}
	for i, proc := range p.Procs {
		lw.lowerProc(proc, lw.prog.Procs[i])
	}
	lw.lowerMain()
	return lw.prog
}

type lowerer struct {
	sp     *sema.Program
	prog   *ir.Program
	varMap map[*sema.VarSym]*ir.Var
	// scratch holds one instruction buffer per block ID, reused from
	// procedure to procedure; finish copies each block out exactly.
	scratch [][]ir.Instr
	// dispatch memoizes selfFormals per receiver type and method.
	dispatch map[dispatchKey][]types.Type

	// Per-procedure state.
	proc      *ir.Proc
	facts     *sema.Facts
	cur       *ir.Block
	exitStack []*ir.Block // EXIT targets
	tempCount int
}

type dispatchKey struct {
	recv   *types.Object
	method string
}

func (lw *lowerer) newBlock(name string) *ir.Block {
	b := &ir.Block{ID: len(lw.proc.Blocks), Name: name}
	if b.ID < len(lw.scratch) {
		b.Instrs = lw.scratch[b.ID][:0]
	}
	lw.proc.Blocks = append(lw.proc.Blocks, b)
	return b
}

func (lw *lowerer) emit(in ir.Instr) {
	lw.cur.Instrs = append(lw.cur.Instrs, in)
}

// finish ends the procedure: it gives every block an exact-size copy
// of its instructions and keeps the scratch buffers for the next one.
func (lw *lowerer) finish(ip *ir.Proc) {
	for _, b := range ip.Blocks {
		buf := b.Instrs
		if b.ID < len(lw.scratch) {
			lw.scratch[b.ID] = buf[:0]
		} else {
			lw.scratch = append(lw.scratch, buf[:0])
		}
		b.Instrs = nil
		if len(buf) > 0 {
			b.Instrs = make([]ir.Instr, len(buf))
			copy(b.Instrs, buf)
		}
	}
	ip.ComputeCFGEdges()
}

// sealJump ends the current block with a jump if it lacks a terminator.
func (lw *lowerer) sealJump(target *ir.Block) {
	if n := len(lw.cur.Instrs); n > 0 && lw.cur.Instrs[n-1].IsTerminator() {
		return
	}
	lw.emit(ir.Instr{Op: ir.OpJump, Target: target})
}

func (lw *lowerer) newTemp(t types.Type) *ir.Var {
	lw.tempCount++
	v := &ir.Var{Name: fmt.Sprintf("$t%d", lw.tempCount), Type: t, Kind: ir.LocalVar,
		Slot: len(lw.proc.Locals) + len(lw.proc.Params)}
	lw.proc.Locals = append(lw.proc.Locals, v)
	return v
}

func (lw *lowerer) addLocal(sym *sema.VarSym) *ir.Var {
	v := &ir.Var{Name: sym.Name, Type: sym.Type, Kind: ir.LocalVar,
		Slot: len(lw.proc.Locals) + len(lw.proc.Params)}
	lw.proc.Locals = append(lw.proc.Locals, v)
	lw.varMap[sym] = v
	return v
}

// ---------------------------------------------------------------------------
// Procedures

func (lw *lowerer) lowerProc(sp *sema.Procedure, ip *ir.Proc) {
	lw.proc = ip
	lw.facts = sp.Facts
	lw.tempCount = 0
	for _, p := range sp.Params {
		v := &ir.Var{Name: p.Name, Type: p.Type, Kind: ir.ParamVar,
			ByRef: p.ByRef(), Slot: len(ip.Params)}
		if v.ByRef {
			lw.prog.ByRefFormalTypes[p.Type.ID()] = true
		}
		ip.Params = append(ip.Params, v)
		lw.varMap[p] = v
	}
	entry := lw.newBlock("entry")
	ip.Entry = entry
	lw.cur = entry
	// Local declarations with initializers.
	for _, d := range sp.Decl.Locals {
		vd, ok := d.(*ast.VarDecl)
		if !ok {
			continue
		}
		for _, sym := range sp.Locals {
			// match by name within this decl
			for _, n := range vd.Names {
				if sym.Name == n && lw.varMap[sym] == nil {
					lw.addLocal(sym)
				}
			}
		}
		if vd.Init != nil {
			for _, n := range vd.Names {
				sym := lw.findLocal(sp, n)
				if sym == nil {
					continue
				}
				lw.merge(sym.Type, lw.facts.TypeOf(vd.Init))
				val := lw.expr(vd.Init)
				lw.emit(ir.Instr{Op: ir.OpSetVar, Var: lw.varMap[sym], Args: []ir.Operand{val}, Pos: vd.NamePos})
			}
		}
	}
	// Remaining locals without initializers.
	for _, sym := range sp.Locals {
		if lw.varMap[sym] == nil {
			lw.addLocal(sym)
		}
	}
	lw.stmts(sp.Body)
	// Implicit return.
	if n := len(lw.cur.Instrs); n == 0 || !lw.cur.Instrs[n-1].IsTerminator() {
		lw.emit(ir.Instr{Op: ir.OpReturn})
	}
	lw.finish(ip)
}

func (lw *lowerer) findLocal(sp *sema.Procedure, name string) *sema.VarSym {
	for _, sym := range sp.Locals {
		if sym.Name == name {
			return sym
		}
	}
	return nil
}

// lowerMain builds the __main__ procedure from global initializers plus
// the module body.
func (lw *lowerer) lowerMain() {
	ip := &ir.Proc{Name: "__main__", Result: lw.prog.Universe.VoidT}
	lw.prog.Procs = append(lw.prog.Procs, ip)
	lw.prog.ProcByName[ip.Name] = ip
	lw.prog.Main = ip
	lw.proc = ip
	lw.facts = lw.sp.Facts
	lw.tempCount = 0
	entry := lw.newBlock("entry")
	ip.Entry = entry
	lw.cur = entry
	for _, gi := range lw.sp.GlobalInits {
		lw.merge(gi.Var.Type, lw.facts.TypeOf(gi.Expr))
		val := lw.expr(gi.Expr)
		lw.emit(ir.Instr{Op: ir.OpSetVar, Var: lw.varMap[gi.Var], Args: []ir.Operand{val}})
	}
	lw.stmts(lw.sp.Module.Body)
	if n := len(lw.cur.Instrs); n == 0 || !lw.cur.Instrs[n-1].IsTerminator() {
		lw.emit(ir.Instr{Op: ir.OpReturn})
	}
	lw.finish(ip)
}

// ---------------------------------------------------------------------------
// Statements

func (lw *lowerer) stmts(ss []ast.Stmt) {
	for _, s := range ss {
		lw.stmt(s)
	}
}

func (lw *lowerer) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		lw.assign(s)
	case *ast.CallStmt:
		lw.call(s.Call, false)
	case *ast.IfStmt:
		thenB := lw.newBlock("then")
		elseB := lw.newBlock("else")
		doneB := lw.newBlock("endif")
		lw.cond(s.Cond, thenB, elseB)
		lw.cur = thenB
		lw.stmts(s.Then)
		lw.sealJump(doneB)
		lw.cur = elseB
		lw.stmts(s.Else)
		lw.sealJump(doneB)
		lw.cur = doneB
	case *ast.WhileStmt:
		headB := lw.newBlock("while.head")
		bodyB := lw.newBlock("while.body")
		doneB := lw.newBlock("while.done")
		lw.sealJump(headB)
		lw.cur = headB
		lw.cond(s.Cond, bodyB, doneB)
		lw.cur = bodyB
		lw.exitStack = append(lw.exitStack, doneB)
		lw.stmts(s.Body)
		lw.exitStack = lw.exitStack[:len(lw.exitStack)-1]
		lw.sealJump(headB)
		lw.cur = doneB
	case *ast.RepeatStmt:
		bodyB := lw.newBlock("repeat.body")
		doneB := lw.newBlock("repeat.done")
		lw.sealJump(bodyB)
		lw.cur = bodyB
		lw.exitStack = append(lw.exitStack, doneB)
		lw.stmts(s.Body)
		lw.exitStack = lw.exitStack[:len(lw.exitStack)-1]
		lw.cond(s.Cond, doneB, bodyB)
		lw.cur = doneB
	case *ast.LoopStmt:
		bodyB := lw.newBlock("loop.body")
		doneB := lw.newBlock("loop.done")
		lw.sealJump(bodyB)
		lw.cur = bodyB
		lw.exitStack = append(lw.exitStack, doneB)
		lw.stmts(s.Body)
		lw.exitStack = lw.exitStack[:len(lw.exitStack)-1]
		lw.sealJump(bodyB)
		lw.cur = doneB
	case *ast.ExitStmt:
		if len(lw.exitStack) > 0 {
			lw.sealJump(lw.exitStack[len(lw.exitStack)-1])
		}
		// Unreachable continuation.
		lw.cur = lw.newBlock("after.exit")
	case *ast.ForStmt:
		lw.forStmt(s)
	case *ast.ReturnStmt:
		var args []ir.Operand
		if s.Value != nil {
			lw.merge(lw.proc.Result, lw.facts.TypeOf(s.Value))
			args = []ir.Operand{lw.expr(s.Value)}
		}
		lw.emit(ir.Instr{Op: ir.OpReturn, Args: args, Pos: s.RetPos})
		lw.cur = lw.newBlock("after.return")
	case *ast.WithStmt:
		lw.withStmt(s)
	}
}

// merge records a pointer assignment dst := src for SMTypeRefs when both
// sides are reference types with distinct declared types (Figure 2,
// Step 2: "if Ta # Tb").
func (lw *lowerer) merge(dst, src types.Type) {
	if dst == nil || src == nil {
		return
	}
	if !dst.IsReference() || !src.IsReference() {
		return
	}
	if b, ok := src.(*types.Basic); ok && b.Kind == types.Null {
		return // NIL carries no type group
	}
	if dst.ID() == src.ID() {
		return
	}
	lw.prog.Merges = append(lw.prog.Merges, ir.Merge{Dst: dst, Src: src})
}

func (lw *lowerer) assign(s *ast.AssignStmt) {
	lt := lw.facts.TypeOf(s.LHS)
	lw.merge(lt, lw.facts.TypeOf(s.RHS))
	if rec, ok := lt.(*types.Record); ok {
		lw.recordAssign(s, rec)
		return
	}
	// Evaluate RHS first (Modula-3 evaluation order is unspecified between
	// the sides; RHS-first matches common compilers and keeps designator
	// side effects before the store).
	val := lw.expr(s.RHS)
	lv := lw.lval(s.LHS)
	lw.storeTo(lv, val, s.Pos())
}

// recordAssign expands r1 := r2 field-by-field ("aggregate accesses broken
// down into accesses of each component", paper Section 2.3).
func (lw *lowerer) recordAssign(s *ast.AssignStmt, rec *types.Record) {
	for _, f := range rec.Fields {
		fv := lw.loadRecordField(s.RHS, rec, f)
		lv := lw.recordFieldLval(s.LHS, rec, f)
		lw.storeTo(lv, fv, s.Pos())
	}
}

// ---------------------------------------------------------------------------
// FOR / WITH

func (lw *lowerer) forStmt(s *ast.ForStmt) {
	sym := lw.facts.ForSym(s)
	iv := lw.addLocal(sym)
	lo := lw.expr(s.Lo)
	hi := lw.expr(s.Hi)
	// Bounds are evaluated once; stash hi in a temp var so the loop
	// condition re-reads a stable location.
	hiVar := lw.newTemp(lw.prog.Universe.IntT)
	lw.emit(ir.Instr{Op: ir.OpSetVar, Var: hiVar, Args: []ir.Operand{hi}})
	step := ir.CInt(1)
	descending := false
	if s.Step != nil {
		step = lw.expr(s.Step)
		if step.Kind == ir.ConstOp && step.Const.Int < 0 {
			descending = true
		}
	}
	lw.emit(ir.Instr{Op: ir.OpSetVar, Var: iv, Args: []ir.Operand{lo}})
	headB := lw.newBlock("for.head")
	bodyB := lw.newBlock("for.body")
	doneB := lw.newBlock("for.done")
	lw.sealJump(headB)
	lw.cur = headB
	cmp := lw.proc.NewReg()
	op := ir.Le
	if descending {
		op = ir.Ge
	}
	lw.emit(ir.Instr{Op: ir.OpBin, BinOp: op, Dst: cmp,
		Args: []ir.Operand{ir.V(iv), ir.V(hiVar)}})
	lw.emit(ir.Instr{Op: ir.OpBranch, Args: []ir.Operand{ir.R(cmp)}, Then: bodyB, Else: doneB})
	lw.cur = bodyB
	lw.exitStack = append(lw.exitStack, doneB)
	lw.stmts(s.Body)
	lw.exitStack = lw.exitStack[:len(lw.exitStack)-1]
	next := lw.proc.NewReg()
	lw.emit(ir.Instr{Op: ir.OpBin, BinOp: ir.Add, Dst: next,
		Args: []ir.Operand{ir.V(iv), step}})
	lw.emit(ir.Instr{Op: ir.OpSetVar, Var: iv, Args: []ir.Operand{ir.R(next)}})
	lw.sealJump(headB)
	lw.cur = doneB
}

func (lw *lowerer) withStmt(s *ast.WithStmt) {
	sym := lw.facts.WithSym(s)
	wv := lw.addLocal(sym)
	if sym.WithExpr == nil {
		// Value binding.
		val := lw.expr(s.Expr)
		lw.emit(ir.Instr{Op: ir.OpSetVar, Var: wv, Args: []ir.Operand{val}})
	} else {
		// Alias binding: take the address of the designator.
		loc := lw.takeAddress(s.Expr, s.Pos())
		lw.emit(ir.Instr{Op: ir.OpSetVar, Var: wv, Args: []ir.Operand{loc}})
		wv.ByRef = true
	}
	lw.stmts(s.Body)
}

// takeAddress lowers a designator to a location value and records the
// address-taken fact the alias analyses consume.
func (lw *lowerer) takeAddress(e ast.Expr, pos token.Pos) ir.Operand {
	lv := lw.lval(e)
	switch lv.kind {
	case lvVar:
		lw.prog.AddressTakenVars[lv.v] = true
		r := lw.proc.NewReg()
		lw.emit(ir.Instr{Op: ir.OpMkLocVar, Dst: r, Var: lv.v, Pos: pos})
		return ir.R(r)
	case lvVarField:
		lw.prog.AddressTakenFields[ir.FieldKey{TypeID: lv.v.Type.ID(), Field: lv.field}] = true
		lw.prog.AddressTakenVars[lv.v] = true
		r := lw.proc.NewReg()
		lw.emit(ir.Instr{Op: ir.OpMkLoc, Dst: r, Base: ir.V(lv.v),
			Sel: ir.Sel{Kind: ir.SelField, Field: lv.field}, AP: lv.ap, Pos: pos})
		return ir.R(r)
	case lvMem:
		lw.recordAddressTaken(lv)
		r := lw.proc.NewReg()
		lw.emit(ir.Instr{Op: ir.OpMkLoc, Dst: r, Base: lv.base, Sel: lv.sel, AP: lv.ap, Pos: pos})
		return ir.R(r)
	}
	return ir.CNil()
}

func (lw *lowerer) recordAddressTaken(lv lval) {
	switch lv.sel.Kind {
	case ir.SelField:
		// Key by the static type of the path prefix (the object/record
		// that owns the field).
		prefix := lv.ap.Prefix()
		pt := prefix.Type()
		if rt, ok := pt.(*types.Ref); ok {
			pt = rt.Elem
		}
		lw.prog.AddressTakenFields[ir.FieldKey{TypeID: pt.ID(), Field: lv.sel.Field}] = true
	case ir.SelIndex:
		// The prefix of p[i] is the array-typed path p (source-level APs
		// do not include the implicit {elems} step).
		if n := len(lv.ap.Sels); n >= 1 {
			pre := &ir.AP{Root: lv.ap.Root, Sels: lv.ap.Sels[:n-1]}
			if at, ok := pre.Type().(*types.Array); ok {
				lw.prog.AddressTakenElems[at.ID()] = true
			}
		}
	case ir.SelDeref:
		// Address of p^ is just the value of p; nothing new escapes.
	}
}
