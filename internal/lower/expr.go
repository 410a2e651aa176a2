package lower

import (
	"tbaa/internal/ast"
	"tbaa/internal/ir"
	"tbaa/internal/sema"
	"tbaa/internal/token"
	"tbaa/internal/types"
)

// lvalKind discriminates lval.
type lvalKind int

const (
	lvVar      lvalKind = iota // a plain variable slot
	lvVarField                 // field of a record-typed variable (stack/global access)
	lvMem                      // memory through a pointer or location value
)

// lval describes a location a designator denotes.
type lval struct {
	kind  lvalKind
	v     *ir.Var // lvVar, lvVarField
	field string  // lvVarField
	base  ir.Operand
	sel   ir.Sel
	ap    *ir.AP
	typ   types.Type // type of the stored value
}

// loadFrom reads the value at an lval.
func (lw *lowerer) loadFrom(lv lval, pos token.Pos) ir.Operand {
	switch lv.kind {
	case lvVar:
		return ir.V(lv.v)
	case lvVarField:
		dst := lw.proc.NewReg()
		lw.emit(ir.Instr{Op: ir.OpLoadVarField, Dst: dst, Var: lv.v,
			Field: lv.field, AP: lv.ap, Type: lv.typ, Pos: pos})
		return ir.R(dst)
	default:
		dst := lw.proc.NewReg()
		lw.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, Base: lv.base, Sel: lv.sel,
			AP: lv.ap, Type: lv.typ, Pos: pos})
		return ir.R(dst)
	}
}

// storeTo writes a value to an lval.
func (lw *lowerer) storeTo(lv lval, val ir.Operand, pos token.Pos) {
	switch lv.kind {
	case lvVar:
		lw.emit(ir.Instr{Op: ir.OpSetVar, Var: lv.v, Args: []ir.Operand{val}, Pos: pos})
	case lvVarField:
		lw.emit(ir.Instr{Op: ir.OpStoreVarField, Var: lv.v, Field: lv.field,
			Args: []ir.Operand{val}, AP: lv.ap, Type: lv.typ, Pos: pos})
	default:
		lw.emit(ir.Instr{Op: ir.OpStore, Base: lv.base, Sel: lv.sel,
			Args: []ir.Operand{val}, AP: lv.ap, Type: lv.typ, Pos: pos})
	}
}

// lval lowers a designator to a location description, emitting any loads
// the path prefix requires.
func (lw *lowerer) lval(e ast.Expr) lval {
	switch e := e.(type) {
	case *ast.Ident:
		sym := lw.facts.SymOf(e)
		v := lw.varMap[sym]
		if v == nil {
			// Should not happen for checked programs.
			v = lw.newTemp(lw.facts.TypeOf(e))
		}
		if v.ByRef {
			// A by-ref formal or WITH alias: the slot holds a location;
			// accesses are dereferences (the paper's f^ treatment).
			ap := &ir.AP{Root: v, Sels: []ir.APSel{{Kind: ir.SelDeref, Type: v.Type}}}
			return lval{kind: lvMem, base: ir.V(v),
				sel: ir.Sel{Kind: ir.SelDeref}, ap: ap, typ: v.Type}
		}
		return lval{kind: lvVar, v: v, ap: &ir.AP{Root: v}, typ: v.Type}

	case *ast.QualifyExpr:
		ft := lw.facts.TypeOf(e)
		xt := lw.facts.TypeOf(e.X)
		// p^.a over REF RECORD is the same location as p.a: unwrap.
		if dx, ok := e.X.(*ast.DerefExpr); ok {
			if _, isRec := xt.(*types.Record); isRec {
				base, ap := lw.evalWithAP(dx.X)
				return lval{kind: lvMem, base: base,
					sel: ir.Sel{Kind: ir.SelField, Field: e.Field},
					ap:  ap.Extend(ir.APSel{Kind: ir.SelField, Field: e.Field, Type: ft}),
					typ: ft}
			}
		}
		switch xt.(type) {
		case *types.Object, *types.Ref:
			base, ap := lw.evalWithAP(e.X)
			return lval{kind: lvMem, base: base,
				sel: ir.Sel{Kind: ir.SelField, Field: e.Field},
				ap:  ap.Extend(ir.APSel{Kind: ir.SelField, Field: e.Field, Type: ft}),
				typ: ft}
		case *types.Record:
			inner := lw.lval(e.X)
			switch inner.kind {
			case lvVar:
				return lval{kind: lvVarField, v: inner.v, field: e.Field,
					ap:  inner.ap.Extend(ir.APSel{Kind: ir.SelField, Field: e.Field, Type: ft}),
					typ: ft}
			case lvMem:
				// A record behind a location (by-ref formal or WITH alias):
				// replace the trailing deref with the field selector.
				ap := &ir.AP{Root: inner.ap.Root,
					Sels: append(append([]ir.APSel{}, inner.ap.Sels[:len(inner.ap.Sels)-1]...),
						ir.APSel{Kind: ir.SelField, Field: e.Field, Type: ft})}
				return lval{kind: lvMem, base: inner.base,
					sel: ir.Sel{Kind: ir.SelField, Field: e.Field}, ap: ap, typ: ft}
			}
		}
		// Fallback (checked programs do not reach here).
		base, ap := lw.evalWithAP(e.X)
		return lval{kind: lvMem, base: base,
			sel: ir.Sel{Kind: ir.SelField, Field: e.Field},
			ap:  ap.Extend(ir.APSel{Kind: ir.SelField, Field: e.Field, Type: ft}),
			typ: ft}

	case *ast.DerefExpr:
		t := lw.facts.TypeOf(e)
		base, ap := lw.evalWithAP(e.X)
		return lval{kind: lvMem, base: base, sel: ir.Sel{Kind: ir.SelDeref},
			ap:  ap.Extend(ir.APSel{Kind: ir.SelDeref, Type: t}),
			typ: t}

	case *ast.SubscriptExpr:
		t := lw.facts.TypeOf(e)
		arr, arrAP := lw.evalWithAP(e.X)
		at, _ := lw.facts.TypeOf(e.X).(*types.Array)
		elems := lw.proc.NewReg()
		elemsAP := arrAP.Extend(ir.APSel{Kind: ir.SelDopeElems, Type: at})
		lw.emit(ir.Instr{Op: ir.OpLoad, Dst: elems, Base: arr,
			Sel: ir.Sel{Kind: ir.SelDopeElems}, AP: elemsAP, Type: at, Pos: e.Pos()})
		idx := lw.expr(e.Index)
		return lval{kind: lvMem, base: ir.R(elems),
			sel: ir.Sel{Kind: ir.SelIndex, Index: idx},
			ap:  arrAP.Extend(ir.APSel{Kind: ir.SelIndex, Index: idx, Type: t}),
			typ: t}
	}
	// Non-designator: evaluate into a temp and treat as a variable.
	val := lw.expr(e)
	tv := lw.newTemp(lw.facts.TypeOf(e))
	lw.emit(ir.Instr{Op: ir.OpSetVar, Var: tv, Args: []ir.Operand{val}})
	return lval{kind: lvVar, v: tv, ap: &ir.AP{Root: tv}, typ: tv.Type}
}

// evalWithAP lowers e to a value operand plus the symbolic access path it
// denotes. Non-designators are stashed in a compiler temp so downstream
// selectors still root at a variable.
func (lw *lowerer) evalWithAP(e ast.Expr) (ir.Operand, *ir.AP) {
	switch e.(type) {
	case *ast.Ident, *ast.QualifyExpr, *ast.DerefExpr, *ast.SubscriptExpr:
		lv := lw.lval(e)
		return lw.loadFrom(lv, e.Pos()), lv.ap
	}
	val := lw.expr(e)
	tv := lw.newTemp(lw.facts.TypeOf(e))
	lw.emit(ir.Instr{Op: ir.OpSetVar, Var: tv, Args: []ir.Operand{val}})
	return ir.V(tv), &ir.AP{Root: tv}
}

// recordFieldLval produces the lval of field f of a record-typed
// designator (for aggregate assignment expansion).
func (lw *lowerer) recordFieldLval(e ast.Expr, rec *types.Record, f *types.Field) lval {
	inner := lw.lval(e)
	switch inner.kind {
	case lvVar:
		return lval{kind: lvVarField, v: inner.v, field: f.Name,
			ap:  inner.ap.Extend(ir.APSel{Kind: ir.SelField, Field: f.Name, Type: f.Type}),
			typ: f.Type}
	default:
		ap := &ir.AP{Root: inner.ap.Root,
			Sels: append(append([]ir.APSel{}, inner.ap.Sels[:len(inner.ap.Sels)-1]...),
				ir.APSel{Kind: ir.SelField, Field: f.Name, Type: f.Type})}
		return lval{kind: lvMem, base: inner.base,
			sel: ir.Sel{Kind: ir.SelField, Field: f.Name}, ap: ap, typ: f.Type}
	}
}

func (lw *lowerer) loadRecordField(e ast.Expr, rec *types.Record, f *types.Field) ir.Operand {
	lv := lw.recordFieldLval(e, rec, f)
	return lw.loadFrom(lv, e.Pos())
}

// ---------------------------------------------------------------------------
// Expressions

func (lw *lowerer) expr(e ast.Expr) ir.Operand {
	switch e := e.(type) {
	case *ast.IntLit:
		return ir.CInt(e.Value)
	case *ast.BoolLit:
		return ir.CBool(e.Value)
	case *ast.CharLit:
		return ir.CChar(e.Value)
	case *ast.TextLit:
		return ir.CText(e.Value)
	case *ast.NilLit:
		return ir.CNil()
	case *ast.Ident:
		if cs := lw.facts.ConstOf(e); cs != nil {
			return lw.constOperand(cs)
		}
		v, _ := lw.evalWithAP(e)
		return v
	case *ast.QualifyExpr, *ast.DerefExpr, *ast.SubscriptExpr:
		v, _ := lw.evalWithAP(e)
		return v
	case *ast.UnaryExpr:
		x := lw.expr(e.X)
		if e.Op == token.MINUS && x.Kind == ir.ConstOp && x.Const.Kind == ir.IntConst {
			return ir.CInt(-x.Const.Int)
		}
		dst := lw.proc.NewReg()
		op := ir.Neg
		if e.Op == token.NOT {
			op = ir.Not
		}
		lw.emit(ir.Instr{Op: ir.OpUn, UnOp: op, Dst: dst, Args: []ir.Operand{x}, Pos: e.Pos()})
		return ir.R(dst)
	case *ast.BinaryExpr:
		if e.Op == token.AND || e.Op == token.OR {
			return lw.shortCircuitValue(e)
		}
		l := lw.expr(e.L)
		r := lw.expr(e.R)
		dst := lw.proc.NewReg()
		lw.emit(ir.Instr{Op: ir.OpBin, BinOp: binOp(e.Op), Dst: dst,
			Args: []ir.Operand{l, r}, Pos: e.Pos()})
		return ir.R(dst)
	case *ast.CallExpr:
		return lw.call(e, true)
	case *ast.NewExpr:
		t := lw.facts.TypeOf(e)
		dst := lw.proc.NewReg()
		if arr, ok := t.(*types.Array); ok {
			ln := lw.expr(e.Len)
			lw.emit(ir.Instr{Op: ir.OpNewArray, Dst: dst, Type: arr,
				Args: []ir.Operand{ln}, Pos: e.Pos()})
		} else {
			lw.emit(ir.Instr{Op: ir.OpNew, Dst: dst, Type: t, Pos: e.Pos()})
		}
		return ir.R(dst)
	}
	return ir.CInt(0)
}

func (lw *lowerer) constOperand(cs *sema.ConstSym) ir.Operand {
	switch {
	case cs.Type == nil:
		return ir.CInt(0)
	}
	if b, ok := cs.Type.(*types.Basic); ok {
		switch b.Kind {
		case types.Integer:
			return ir.CInt(cs.Int)
		case types.Boolean:
			return ir.CBool(cs.Bool)
		case types.Char:
			return ir.CChar(cs.Char)
		case types.Text:
			return ir.CText(cs.Text)
		}
	}
	return ir.CInt(0)
}

func binOp(k token.Kind) ir.BinOp {
	switch k {
	case token.PLUS:
		return ir.Add
	case token.MINUS:
		return ir.Sub
	case token.STAR:
		return ir.Mul
	case token.DIV:
		return ir.Div
	case token.MOD:
		return ir.Mod
	case token.EQ:
		return ir.Eq
	case token.NEQ:
		return ir.Ne
	case token.LT:
		return ir.Lt
	case token.GT:
		return ir.Gt
	case token.LE:
		return ir.Le
	case token.GE:
		return ir.Ge
	case token.AMP:
		return ir.Concat
	}
	return ir.Add
}

// shortCircuitValue materializes AND/OR into a temp via control flow.
func (lw *lowerer) shortCircuitValue(e *ast.BinaryExpr) ir.Operand {
	tv := lw.newTemp(lw.prog.Universe.BoolT)
	tB := lw.newBlock("sc.true")
	fB := lw.newBlock("sc.false")
	dB := lw.newBlock("sc.done")
	lw.cond(e, tB, fB)
	lw.cur = tB
	lw.emit(ir.Instr{Op: ir.OpSetVar, Var: tv, Args: []ir.Operand{ir.CBool(true)}})
	lw.sealJump(dB)
	lw.cur = fB
	lw.emit(ir.Instr{Op: ir.OpSetVar, Var: tv, Args: []ir.Operand{ir.CBool(false)}})
	lw.sealJump(dB)
	lw.cur = dB
	return ir.V(tv)
}

// cond lowers a boolean expression as control flow (short-circuit AND/OR).
func (lw *lowerer) cond(e ast.Expr, thenB, elseB *ir.Block) {
	switch ex := e.(type) {
	case *ast.BinaryExpr:
		switch ex.Op {
		case token.AND:
			mid := lw.newBlock("and.rhs")
			lw.cond(ex.L, mid, elseB)
			lw.cur = mid
			lw.cond(ex.R, thenB, elseB)
			return
		case token.OR:
			mid := lw.newBlock("or.rhs")
			lw.cond(ex.L, thenB, mid)
			lw.cur = mid
			lw.cond(ex.R, thenB, elseB)
			return
		}
	case *ast.UnaryExpr:
		if ex.Op == token.NOT {
			lw.cond(ex.X, elseB, thenB)
			return
		}
	case *ast.BoolLit:
		if ex.Value {
			lw.sealJump(thenB)
		} else {
			lw.sealJump(elseB)
		}
		return
	}
	v := lw.expr(e)
	lw.emit(ir.Instr{Op: ir.OpBranch, Args: []ir.Operand{v}, Then: thenB, Else: elseB, Pos: e.Pos()})
}

// ---------------------------------------------------------------------------
// Calls

func (lw *lowerer) call(e *ast.CallExpr, wantValue bool) ir.Operand {
	ci := lw.facts.CallOf(e)
	if ci == nil {
		return ir.CInt(0)
	}
	switch ci.Kind {
	case sema.BuiltinCall:
		return lw.builtin(e, ci)
	case sema.ProcCall:
		target := lw.prog.ProcByName[ci.Proc.Name]
		args := make([]ir.Operand, len(e.Args))
		byref := make([]bool, len(e.Args))
		for i, a := range e.Args {
			if i < len(ci.Proc.Params) && ci.Proc.Params[i].ByRef() {
				args[i] = lw.takeAddress(a, a.Pos())
				byref[i] = true
			} else {
				if i < len(ci.Proc.Params) {
					lw.merge(ci.Proc.Params[i].Type, lw.facts.TypeOf(a))
				}
				args[i] = lw.expr(a)
			}
		}
		dst := ir.NoReg
		if !isVoid(target.Result) {
			dst = lw.proc.NewReg()
		}
		lw.emit(ir.Instr{Op: ir.OpCall, Dst: dst, Callee: target.Name,
			Args: args, ByRef: byref, Type: target.Result, Pos: e.Pos()})
		if dst == ir.NoReg {
			return ir.CInt(0)
		}
		return ir.R(dst)
	case sema.MethodCall:
		lw.mergeReceiver(ci)
		recv := lw.expr(ci.Recv)
		args := make([]ir.Operand, 0, len(e.Args)+1)
		byref := make([]bool, 0, len(e.Args)+1)
		args = append(args, recv)
		byref = append(byref, false)
		for i, a := range e.Args {
			if i < len(ci.Method.Modes) && ci.Method.Modes[i] == types.VarMode {
				args = append(args, lw.takeAddress(a, a.Pos()))
				byref = append(byref, true)
				lw.prog.ByRefFormalTypes[lw.facts.TypeOf(a).ID()] = true
			} else {
				if i < len(ci.Method.Params) {
					lw.merge(ci.Method.Params[i], lw.facts.TypeOf(a))
				}
				args = append(args, lw.expr(a))
				byref = append(byref, false)
			}
		}
		dst := ir.NoReg
		if !isVoid(ci.Method.Result) {
			dst = lw.proc.NewReg()
		}
		lw.emit(ir.Instr{Op: ir.OpMethodCall, Dst: dst, Method: ci.Method.Name,
			RecvType: ci.RecvType, Args: args, ByRef: byref,
			Type: ci.Method.Result, Pos: e.Pos()})
		if dst == ir.NoReg {
			return ir.CInt(0)
		}
		return ir.R(dst)
	}
	return ir.CInt(0)
}

func isVoid(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind == types.Void
}

// mergeReceiver records the implicit assignment of the receiver to the
// self formal of every implementation the dispatch may invoke.
func (lw *lowerer) mergeReceiver(ci *sema.CallInfo) {
	rt := lw.facts.TypeOf(ci.Recv)
	ro, ok := rt.(*types.Object)
	if !ok {
		return
	}
	for _, self := range lw.selfFormals(ro, ci.Method.Name) {
		lw.merge(self, rt)
	}
}

// selfFormals returns the self formal types of the distinct
// implementations a call of method on a receiver of type ro may
// dispatch to, in subtype order. They are resolved once per receiver
// type and method in each lowering.
func (lw *lowerer) selfFormals(ro *types.Object, method string) []types.Type {
	key := dispatchKey{ro, method}
	if selfs, ok := lw.dispatch[key]; ok {
		return selfs
	}
	var selfs []types.Type
	seen := map[string]bool{}
	for _, id := range lw.prog.Universe.Subtypes(ro) {
		o, ok := lw.prog.Universe.ByID(id).(*types.Object)
		if !ok {
			continue
		}
		impl := o.Implementation(method)
		if impl == "" || seen[impl] {
			continue
		}
		seen[impl] = true
		if sp := lw.sp.ProcByName[impl]; sp != nil && len(sp.Params) > 0 {
			selfs = append(selfs, sp.Params[0].Type)
		}
	}
	if lw.dispatch == nil {
		lw.dispatch = make(map[dispatchKey][]types.Type)
	}
	lw.dispatch[key] = selfs
	return selfs
}

func (lw *lowerer) builtin(e *ast.CallExpr, ci *sema.CallInfo) ir.Operand {
	u := lw.prog.Universe
	switch ci.Builtin {
	case sema.BuiltinNumber:
		arr, arrAP := lw.evalWithAP(e.Args[0])
		dst := lw.proc.NewReg()
		lw.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, Base: arr,
			Sel:  ir.Sel{Kind: ir.SelDopeLen},
			AP:   arrAP.Extend(ir.APSel{Kind: ir.SelDopeLen, Type: u.IntT}),
			Type: u.IntT, Pos: e.Pos()})
		return ir.R(dst)
	case sema.BuiltinInc, sema.BuiltinDec:
		lv := lw.lval(e.Args[0])
		cur := lw.loadFrom(lv, e.Pos())
		step := ir.Operand(ir.CInt(1))
		if len(e.Args) == 2 {
			step = lw.expr(e.Args[1])
		}
		op := ir.Add
		if ci.Builtin == sema.BuiltinDec {
			op = ir.Sub
		}
		dst := lw.proc.NewReg()
		lw.emit(ir.Instr{Op: ir.OpBin, BinOp: op, Dst: dst,
			Args: []ir.Operand{cur, step}, Pos: e.Pos()})
		lw.storeTo(lv, ir.R(dst), e.Pos())
		return ir.CInt(0)
	}
	// Plain builtins: evaluate args, emit one instruction.
	args := make([]ir.Operand, len(e.Args))
	for i, a := range e.Args {
		args[i] = lw.expr(a)
	}
	var bi ir.Builtin
	hasResult := true
	switch ci.Builtin {
	case sema.BuiltinAbs:
		bi = ir.BAbs
	case sema.BuiltinMin:
		bi = ir.BMin
	case sema.BuiltinMax:
		bi = ir.BMax
	case sema.BuiltinOrd:
		bi = ir.BOrd
	case sema.BuiltinChr:
		bi = ir.BChr
	case sema.BuiltinTextLen:
		bi = ir.BTextLen
	case sema.BuiltinTextChar:
		bi = ir.BTextChar
	case sema.BuiltinIntToText:
		bi = ir.BIntToText
	case sema.BuiltinPutInt:
		bi, hasResult = ir.BPutInt, false
	case sema.BuiltinPutChar:
		bi, hasResult = ir.BPutChar, false
	case sema.BuiltinPutText:
		bi, hasResult = ir.BPutText, false
	case sema.BuiltinPutLn:
		bi, hasResult = ir.BPutLn, false
	case sema.BuiltinAssert:
		bi, hasResult = ir.BAssert, false
	case sema.BuiltinHalt:
		bi, hasResult = ir.BHalt, false
	default:
		return ir.CInt(0)
	}
	dst := ir.NoReg
	if hasResult {
		dst = lw.proc.NewReg()
	}
	lw.emit(ir.Instr{Op: ir.OpBuiltin, Builtin: bi, Dst: dst, Args: args, Pos: e.Pos()})
	if dst == ir.NoReg {
		return ir.CInt(0)
	}
	return ir.R(dst)
}
