package sema

import (
	"fmt"

	"tbaa/internal/ast"
	"tbaa/internal/token"
	"tbaa/internal/types"
)

// Check type-checks a parsed module.
func Check(m *ast.Module) (*Program, error) {
	c := newChecker(m)
	c.collectTypes()
	c.collectGlobals()
	c.pushScope() // global scope, never popped
	for _, g := range c.prog.Globals {
		c.declare(g, m.NamePos)
	}
	c.collectProcs()
	c.bindMethods()
	c.checkProcBodies()
	c.checkModuleBody()
	if len(c.errs) > 0 {
		return c.prog, c.errs
	}
	return c.prog, nil
}

type checker struct {
	prog *checkerProg
	errs ErrorList

	u         *types.Universe
	typeNames map[string]types.Type
	consts    map[string]*ConstSym
	scopes    []map[string]*VarSym
	curProc   *Procedure
	facts     *Facts // the declaration being checked
	loopDepth int
}

// checkerProg aliases Program to keep field access short.
type checkerProg = Program

func newChecker(m *ast.Module) *checker {
	u := types.NewUniverse()
	p := &Program{
		Module:     m,
		Universe:   u,
		ProcByName: make(map[string]*Procedure),
		typeNames:  make(map[string]types.Type),
	}
	c := &checker{prog: p, u: u, typeNames: p.typeNames,
		consts: make(map[string]*ConstSym)}
	c.typeNames["INTEGER"] = u.IntT
	c.typeNames["BOOLEAN"] = u.BoolT
	c.typeNames["CHAR"] = u.CharT
	c.typeNames["TEXT"] = u.TextT
	return c
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	if len(c.errs) < 50 {
		c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// ---------------------------------------------------------------------------
// Declaration collection

// collectTypes resolves all TYPE declarations. Object types may refer to
// themselves and to later declarations, so we pre-declare object names,
// then resolve bodies.
func (c *checker) collectTypes() {
	// Pass 1: create Object shells for object-typed declarations so that
	// recursive references (e.g. T = OBJECT next: T END) resolve.
	for _, d := range c.prog.Module.Decls {
		td, ok := d.(*ast.TypeDecl)
		if !ok {
			continue
		}
		if _, exists := c.typeNames[td.Name]; exists {
			c.errorf(td.NamePos, "type %s redeclared", td.Name)
			continue
		}
		if ot, ok := td.Type.(*ast.ObjectType); ok {
			obj := c.u.NewObject(td.Name, nil, ot.Branded, ot.Brand)
			c.typeNames[td.Name] = obj
		}
	}
	// Pass 2: resolve everything (supertypes, fields, non-object types).
	for _, d := range c.prog.Module.Decls {
		td, ok := d.(*ast.TypeDecl)
		if !ok {
			continue
		}
		if ot, ok := td.Type.(*ast.ObjectType); ok {
			obj, _ := c.typeNames[td.Name].(*types.Object)
			if obj == nil {
				continue
			}
			c.resolveObject(obj, ot)
			continue
		}
		t := c.resolveType(td.Type)
		if prev, exists := c.typeNames[td.Name]; exists && prev != t {
			continue // redeclaration already reported
		}
		// Propagate the declared name onto anonymous types for diagnostics.
		switch t := t.(type) {
		case *types.Array:
			if t.Name == "" {
				t.Name = td.Name
			}
		case *types.Ref:
			if t.Name == "" {
				t.Name = td.Name
			}
		case *types.Record:
			if t.Name == "" {
				t.Name = td.Name
			}
		}
		c.typeNames[td.Name] = t
	}
}

func (c *checker) resolveObject(obj *types.Object, ot *ast.ObjectType) {
	if ot.Super != "" {
		st, ok := c.typeNames[ot.Super]
		if !ok {
			c.errorf(ot.ObjPos, "undefined supertype %s", ot.Super)
		} else if so, ok := st.(*types.Object); ok {
			// Every earlier link was checked the same way, so so's chain
			// is acyclic; it reaches obj exactly when this link would
			// close a cycle.
			for t := so; t != nil; t = t.Super {
				if t == obj {
					c.errorf(ot.ObjPos, "object type cycle through %s", obj.Name)
					return
				}
			}
			obj.Super = so
			// Re-register the child edge: NewObject ran before Super was known.
			c.u.AddChild(so, obj)
		} else {
			c.errorf(ot.ObjPos, "supertype %s is not an object type", ot.Super)
		}
	}
	for _, f := range ot.Fields {
		ft := c.resolveType(f.Type)
		if _, isRec := ft.(*types.Record); isRec {
			c.errorf(f.NamePos, "record-typed fields must be behind REF in MiniM3")
		}
		for _, name := range f.Names {
			if obj.FieldNamed(name) != nil {
				c.errorf(f.NamePos, "field %s redeclared in %s", name, obj.Name)
				continue
			}
			obj.Fields = append(obj.Fields, &types.Field{Name: name, Type: ft})
		}
	}
	for _, m := range ot.Methods {
		var params []types.Type
		var modes []types.ParamMode
		for _, pr := range m.Params {
			pt := c.resolveType(pr.Type)
			for range pr.Names {
				params = append(params, pt)
				modes = append(modes, paramMode(pr.Mode))
			}
		}
		result := types.Type(c.u.VoidT)
		if m.Result != nil {
			result = c.resolveType(m.Result)
		}
		obj.Methods = append(obj.Methods, &types.Method{
			Name: m.Name, Params: params, Modes: modes, Result: result,
			Default: m.Default,
		})
	}
	for _, o := range ot.Overrides {
		if obj.MethodNamed(o.Name) == nil {
			c.errorf(o.NamePos, "override of undeclared method %s in %s", o.Name, obj.Name)
			continue
		}
		obj.Overrides[o.Name] = o.Proc
	}
}

func paramMode(m ast.ParamMode) types.ParamMode {
	switch m {
	case ast.VarParam:
		return types.VarMode
	case ast.ReadonlyParam:
		return types.ReadonlyMode
	default:
		return types.ValueMode
	}
}

func (c *checker) resolveType(t ast.TypeExpr) types.Type {
	switch t := t.(type) {
	case *ast.NamedType:
		if rt, ok := c.typeNames[t.Name]; ok {
			return rt
		}
		c.errorf(t.NamePos, "undefined type %s", t.Name)
		return c.u.IntT
	case *ast.ArrayType:
		et := c.resolveType(t.Elem)
		if _, isRec := et.(*types.Record); isRec {
			c.errorf(t.ArrPos, "record array elements must be behind REF in MiniM3")
		}
		return c.u.NewArray("", et)
	case *ast.RefType:
		return c.u.NewRef("", c.resolveType(t.Elem))
	case *ast.RecordType:
		var fields []*types.Field
		for _, f := range t.Fields {
			ft := c.resolveType(f.Type)
			if _, isRec := ft.(*types.Record); isRec {
				c.errorf(f.NamePos, "record-typed fields must be behind REF in MiniM3")
			}
			for _, name := range f.Names {
				fields = append(fields, &types.Field{Name: name, Type: ft})
			}
		}
		return c.u.NewRecord("", fields)
	case *ast.ObjectType:
		// Anonymous object type (not at a TYPE decl): give it a fresh name.
		obj := c.u.NewObject(fmt.Sprintf("OBJECT@%s", t.ObjPos), nil, t.Branded, t.Brand)
		c.resolveObject(obj, t)
		return obj
	}
	return c.u.IntT
}

func (c *checker) collectGlobals() {
	for _, d := range c.prog.Module.Decls {
		switch d := d.(type) {
		case *ast.ConstDecl:
			c.declareConst(d)
		case *ast.VarDecl:
			t := c.resolveType(d.Type)
			for _, name := range d.Names {
				v := &VarSym{Name: name, Type: t, Kind: GlobalVar}
				c.prog.Globals = append(c.prog.Globals, v)
				if d.Init != nil {
					c.prog.GlobalInits = append(c.prog.GlobalInits, GlobalInit{Var: v, Expr: d.Init})
				}
			}
		}
	}
}

func (c *checker) declareConst(d *ast.ConstDecl) {
	cs := &ConstSym{Name: d.Name}
	switch v := d.Value.(type) {
	case *ast.IntLit:
		cs.Type = c.u.IntT
		cs.Int = v.Value
	case *ast.BoolLit:
		cs.Type = c.u.BoolT
		cs.Bool = v.Value
	case *ast.CharLit:
		cs.Type = c.u.CharT
		cs.Char = v.Value
	case *ast.TextLit:
		cs.Type = c.u.TextT
		cs.Text = v.Value
	case *ast.UnaryExpr:
		if il, ok := v.X.(*ast.IntLit); ok && v.Op == token.MINUS {
			cs.Type = c.u.IntT
			cs.Int = -il.Value
		} else {
			c.errorf(d.NamePos, "constant %s must be a literal", d.Name)
			cs.Type = c.u.IntT
		}
	default:
		c.errorf(d.NamePos, "constant %s must be a literal", d.Name)
		cs.Type = c.u.IntT
	}
	c.consts[d.Name] = cs
}

func (c *checker) collectProcs() {
	for _, d := range c.prog.Module.Decls {
		pd, ok := d.(*ast.ProcDecl)
		if !ok {
			continue
		}
		if c.prog.ProcByName[pd.Name] != nil {
			c.errorf(pd.NamePos, "procedure %s redeclared", pd.Name)
			continue
		}
		proc := &Procedure{Name: pd.Name, Decl: pd, Result: c.u.VoidT}
		if pd.Result != nil {
			proc.Result = c.resolveType(pd.Result)
			if _, isRec := proc.Result.(*types.Record); isRec {
				c.errorf(pd.NamePos, "record results are not supported; return REF RECORD")
			}
		}
		var sigParams []types.Type
		var sigModes []types.ParamMode
		for _, pr := range pd.Params {
			pt := c.resolveType(pr.Type)
			if _, isRec := pt.(*types.Record); isRec && pr.Mode != ast.VarParam {
				c.errorf(pr.NamePos, "record parameters must be VAR in MiniM3")
			}
			for _, name := range pr.Names {
				v := &VarSym{Name: name, Type: pt, Kind: ParamVar,
					Mode: paramMode(pr.Mode), Proc: proc}
				proc.Params = append(proc.Params, v)
				sigParams = append(sigParams, pt)
				sigModes = append(sigModes, paramMode(pr.Mode))
			}
		}
		proc.Sig = c.u.NewProc(sigParams, sigModes, proc.Result)
		proc.Body = pd.Body
		c.prog.Procs = append(c.prog.Procs, proc)
		c.prog.ProcByName[pd.Name] = proc
	}
}

// bindMethods links procedures named in METHODS/OVERRIDES sections to
// their object types and checks receiver compatibility.
func (c *checker) bindMethods() {
	for _, o := range c.u.ObjectTypes() {
		for _, m := range o.Methods {
			if m.Default != "" {
				c.bindOne(o, m.Name, m.Default)
			}
		}
		for name, procName := range o.Overrides {
			c.bindOne(o, name, procName)
		}
	}
}

func (c *checker) bindOne(o *types.Object, method, procName string) {
	proc := c.prog.ProcByName[procName]
	if proc == nil {
		c.errorf(token.Pos{Line: 1, Col: 1},
			"method %s.%s bound to undefined procedure %s", o.Name, method, procName)
		return
	}
	if proc.MethodOf == nil {
		proc.MethodOf = o
	}
	if len(proc.Params) == 0 {
		c.errorf(proc.Decl.NamePos,
			"procedure %s implements method %s.%s but has no receiver parameter",
			procName, o.Name, method)
		return
	}
	recv := proc.Params[0].Type
	ro, ok := recv.(*types.Object)
	if !ok || !o.IsSubtypeOf(ro) {
		c.errorf(proc.Decl.NamePos,
			"procedure %s receiver type %s does not accept %s",
			procName, recv, o.Name)
	}
}

// ---------------------------------------------------------------------------
// Scopes

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*VarSym{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(v *VarSym, pos token.Pos) {
	top := c.scopes[len(c.scopes)-1]
	if _, exists := top[v.Name]; exists {
		c.errorf(pos, "%s redeclared", v.Name)
	}
	top[v.Name] = v
}

func (c *checker) lookupVar(name string) *VarSym {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v, ok := c.scopes[i][name]; ok {
			return v
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Bodies

func (c *checker) checkProcBodies() {
	for _, proc := range c.prog.Procs {
		c.curProc = proc
		proc.Facts = newFacts(proc.Decl.Nodes)
		c.facts = proc.Facts
		c.pushScope()
		for _, p := range proc.Params {
			c.declare(p, proc.Decl.NamePos)
		}
		for _, d := range proc.Decl.Locals {
			switch d := d.(type) {
			case *ast.VarDecl:
				t := c.resolveType(d.Type)
				for _, name := range d.Names {
					v := &VarSym{Name: name, Type: t, Kind: LocalVar, Proc: proc}
					proc.Locals = append(proc.Locals, v)
					c.declare(v, d.NamePos)
				}
				if d.Init != nil {
					it := c.expr(d.Init)
					if !c.u.AssignableTo(it, t) {
						c.errorf(d.NamePos, "cannot initialize %s with %s", t, it)
					}
				}
			case *ast.ConstDecl:
				c.declareConst(d)
			default:
				c.errorf(d.Pos(), "unsupported local declaration")
			}
		}
		c.stmts(proc.Body)
		c.popScope()
		c.curProc = nil
	}
}

func (c *checker) checkModuleBody() {
	c.prog.Facts = newFacts(c.prog.Module.Nodes)
	c.facts = c.prog.Facts
	c.pushScope()
	for _, gi := range c.prog.GlobalInits {
		it := c.expr(gi.Expr)
		if !c.u.AssignableTo(it, gi.Var.Type) {
			c.errorf(gi.Expr.Pos(), "cannot initialize %s (%s) with %s",
				gi.Var.Name, gi.Var.Type, it)
		}
	}
	c.stmts(c.prog.Module.Body)
	c.popScope()
}

func (c *checker) stmts(ss []ast.Stmt) {
	for _, s := range ss {
		c.stmt(s)
	}
}

func (c *checker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		lt := c.designator(s.LHS, true)
		rt := c.expr(s.RHS)
		if lt != nil && rt != nil && !c.u.AssignableTo(rt, lt) {
			c.errorf(s.Pos(), "cannot assign %s to %s", rt, lt)
		}
	case *ast.CallStmt:
		c.call(s.Call, true)
	case *ast.IfStmt:
		c.cond(s.Cond)
		c.stmts(s.Then)
		c.stmts(s.Else)
	case *ast.WhileStmt:
		c.cond(s.Cond)
		c.loopDepth++
		c.stmts(s.Body)
		c.loopDepth--
	case *ast.RepeatStmt:
		c.loopDepth++
		c.stmts(s.Body)
		c.loopDepth--
		c.cond(s.Cond)
	case *ast.LoopStmt:
		c.loopDepth++
		c.stmts(s.Body)
		c.loopDepth--
	case *ast.ExitStmt:
		if c.loopDepth == 0 {
			c.errorf(s.Pos(), "EXIT outside loop")
		}
	case *ast.ForStmt:
		lo, hi := c.expr(s.Lo), c.expr(s.Hi)
		if !isInt(lo) || !isInt(hi) {
			c.errorf(s.Pos(), "FOR bounds must be INTEGER")
		}
		if s.Step != nil {
			if st := c.expr(s.Step); !isInt(st) {
				c.errorf(s.Pos(), "FOR step must be INTEGER")
			}
		}
		v := &VarSym{Name: s.Var, Type: c.u.IntT, Kind: ForVar, Proc: c.curProc}
		c.facts.syms[s.Number()] = v
		c.pushScope()
		c.declare(v, s.ForPos)
		c.loopDepth++
		c.stmts(s.Body)
		c.loopDepth--
		c.popScope()
	case *ast.ReturnStmt:
		want := types.Type(c.u.VoidT)
		if c.curProc != nil {
			want = c.curProc.Result
		}
		if s.Value == nil {
			if !isVoid(want) {
				c.errorf(s.Pos(), "RETURN without value in function procedure")
			}
			return
		}
		got := c.expr(s.Value)
		if isVoid(want) {
			c.errorf(s.Pos(), "RETURN with value in proper procedure")
		} else if got != nil && !c.u.AssignableTo(got, want) {
			c.errorf(s.Pos(), "cannot return %s as %s", got, want)
		}
	case *ast.WithStmt:
		t := c.expr(s.Expr)
		v := &VarSym{Name: s.Name, Type: t, Kind: WithVar, Proc: c.curProc}
		if ast.IsDesignator(s.Expr) {
			v.WithExpr = s.Expr
		}
		c.facts.syms[s.Number()] = v
		c.pushScope()
		c.declare(v, s.WithPos)
		c.stmts(s.Body)
		c.popScope()
	}
}

func (c *checker) cond(e ast.Expr) {
	t := c.expr(e)
	if t != nil && !isBool(t) {
		c.errorf(e.Pos(), "condition must be BOOLEAN, got %s", t)
	}
}

func isInt(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind == types.Integer
}

func isBool(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind == types.Boolean
}

func isChar(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind == types.Char
}

func isText(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind == types.Text
}

func isVoid(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind == types.Void
}

// ---------------------------------------------------------------------------
// Expressions

func (c *checker) expr(e ast.Expr) types.Type {
	t := c.exprNoMemo(e)
	if t != nil {
		c.facts.types[e.Number()] = t
	}
	return t
}

func (c *checker) exprNoMemo(e ast.Expr) types.Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return c.u.IntT
	case *ast.BoolLit:
		return c.u.BoolT
	case *ast.CharLit:
		return c.u.CharT
	case *ast.TextLit:
		return c.u.TextT
	case *ast.NilLit:
		return c.u.NullT
	case *ast.Ident, *ast.QualifyExpr, *ast.DerefExpr, *ast.SubscriptExpr:
		return c.designator(e, false)
	case *ast.UnaryExpr:
		xt := c.expr(e.X)
		if xt == nil {
			return nil
		}
		switch e.Op {
		case token.MINUS:
			if !isInt(xt) {
				c.errorf(e.Pos(), "unary - requires INTEGER, got %s", xt)
			}
			return c.u.IntT
		case token.NOT:
			if !isBool(xt) {
				c.errorf(e.Pos(), "NOT requires BOOLEAN, got %s", xt)
			}
			return c.u.BoolT
		}
		return nil
	case *ast.BinaryExpr:
		return c.binary(e)
	case *ast.CallExpr:
		return c.call(e, false)
	case *ast.NewExpr:
		return c.newExpr(e)
	}
	c.errorf(e.Pos(), "unsupported expression")
	return nil
}

func (c *checker) binary(e *ast.BinaryExpr) types.Type {
	lt, rt := c.expr(e.L), c.expr(e.R)
	if lt == nil || rt == nil {
		return nil
	}
	switch e.Op {
	case token.PLUS, token.MINUS, token.STAR, token.DIV, token.MOD:
		if !isInt(lt) || !isInt(rt) {
			c.errorf(e.Pos(), "arithmetic requires INTEGER operands, got %s and %s", lt, rt)
		}
		return c.u.IntT
	case token.AMP:
		if !isText(lt) || !isText(rt) {
			c.errorf(e.Pos(), "& requires TEXT operands, got %s and %s", lt, rt)
		}
		return c.u.TextT
	case token.AND, token.OR:
		if !isBool(lt) || !isBool(rt) {
			c.errorf(e.Pos(), "%s requires BOOLEAN operands", e.Op)
		}
		return c.u.BoolT
	case token.EQ, token.NEQ:
		ok := c.u.Comparable(lt, rt) ||
			(isInt(lt) && isInt(rt)) || (isBool(lt) && isBool(rt)) ||
			(isChar(lt) && isChar(rt)) || (isText(lt) && isText(rt))
		if !ok {
			c.errorf(e.Pos(), "cannot compare %s and %s", lt, rt)
		}
		return c.u.BoolT
	case token.LT, token.GT, token.LE, token.GE:
		ok := (isInt(lt) && isInt(rt)) || (isChar(lt) && isChar(rt))
		if !ok {
			c.errorf(e.Pos(), "ordering requires INTEGER or CHAR operands, got %s and %s", lt, rt)
		}
		return c.u.BoolT
	}
	c.errorf(e.Pos(), "unsupported operator %s", e.Op)
	return nil
}

func (c *checker) newExpr(e *ast.NewExpr) types.Type {
	t, ok := c.typeNames[e.TypeName]
	if !ok {
		c.errorf(e.Pos(), "NEW of undefined type %s", e.TypeName)
		return nil
	}
	switch t := t.(type) {
	case *types.Object:
		if e.Len != nil {
			c.errorf(e.Pos(), "NEW of object type %s takes no length", t.Name)
		}
		return t
	case *types.Array:
		if e.Len == nil {
			c.errorf(e.Pos(), "NEW of open array %s requires a length", t)
		} else if lt := c.expr(e.Len); lt != nil && !isInt(lt) {
			c.errorf(e.Pos(), "array length must be INTEGER, got %s", lt)
		}
		return t
	case *types.Ref:
		if e.Len != nil {
			c.errorf(e.Pos(), "NEW of %s takes no length", t)
		}
		return t
	default:
		c.errorf(e.Pos(), "cannot NEW %s", t)
		return nil
	}
}

// designator checks a location expression. When lvalue is set the
// designator must denote an assignable location.
func (c *checker) designator(e ast.Expr, lvalue bool) types.Type {
	t := c.designatorInner(e, lvalue)
	if t != nil {
		c.facts.types[e.Number()] = t
	}
	return t
}

func (c *checker) designatorInner(e ast.Expr, lvalue bool) types.Type {
	switch e := e.(type) {
	case *ast.Ident:
		if v := c.lookupVar(e.Name); v != nil {
			c.facts.syms[e.Number()] = v
			if lvalue && v.Kind == ForVar {
				c.errorf(e.Pos(), "cannot assign to FOR index %s", e.Name)
			}
			if lvalue && v.Kind == WithVar && v.WithExpr == nil {
				c.errorf(e.Pos(), "cannot assign to value WITH binding %s", e.Name)
			}
			return v.Type
		}
		if cs, ok := c.consts[e.Name]; ok {
			if lvalue {
				c.errorf(e.Pos(), "cannot assign to constant %s", e.Name)
			}
			c.facts.setConst(e, cs)
			return cs.Type
		}
		c.errorf(e.Pos(), "undefined: %s", e.Name)
		return nil
	case *ast.QualifyExpr:
		xt := c.expr(e.X)
		if xt == nil {
			return nil
		}
		// Implicit dereference: REF RECORD auto-derefs on qualification.
		if rt, ok := xt.(*types.Ref); ok {
			xt = rt.Elem
		}
		switch xt := xt.(type) {
		case *types.Object:
			f := xt.FieldNamed(e.Field)
			if f == nil {
				c.errorf(e.Pos(), "type %s has no field %s", xt, e.Field)
				return nil
			}
			return f.Type
		case *types.Record:
			f := xt.FieldNamed(e.Field)
			if f == nil {
				c.errorf(e.Pos(), "record has no field %s", e.Field)
				return nil
			}
			return f.Type
		default:
			c.errorf(e.Pos(), "cannot qualify %s with .%s", xt, e.Field)
			return nil
		}
	case *ast.DerefExpr:
		xt := c.expr(e.X)
		if xt == nil {
			return nil
		}
		if rt, ok := xt.(*types.Ref); ok {
			return rt.Elem
		}
		c.errorf(e.Pos(), "cannot dereference %s", xt)
		return nil
	case *ast.SubscriptExpr:
		xt := c.expr(e.X)
		it := c.expr(e.Index)
		if it != nil && !isInt(it) {
			c.errorf(e.Pos(), "subscript must be INTEGER, got %s", it)
		}
		if xt == nil {
			return nil
		}
		if at, ok := xt.(*types.Array); ok {
			return at.Elem
		}
		c.errorf(e.Pos(), "cannot subscript %s", xt)
		return nil
	default:
		if lvalue {
			c.errorf(e.Pos(), "expression is not assignable")
			return c.expr(e)
		}
		return c.expr(e)
	}
}

// call resolves a call expression: builtin, method call, or procedure call.
func (c *checker) call(e *ast.CallExpr, asStmt bool) types.Type {
	// Method call: receiver.m(args) where receiver has object type.
	if q, ok := e.Fun.(*ast.QualifyExpr); ok {
		if rt := c.tryReceiver(q.X); rt != nil {
			if m := rt.MethodNamed(q.Field); m != nil {
				return c.methodCall(e, q, rt, m, asStmt)
			}
			// Fall through: might be a field holding nothing callable.
		}
	}
	id, ok := e.Fun.(*ast.Ident)
	if !ok {
		c.errorf(e.Pos(), "called expression is not a procedure")
		return nil
	}
	if bk, isBuiltin := builtinNames[id.Name]; isBuiltin {
		return c.builtinCall(e, bk, asStmt)
	}
	proc := c.prog.ProcByName[id.Name]
	if proc == nil {
		c.errorf(e.Pos(), "undefined procedure %s", id.Name)
		for _, a := range e.Args {
			c.expr(a)
		}
		return nil
	}
	c.facts.setCall(e, &CallInfo{Kind: ProcCall, Proc: proc})
	c.checkArgs(e, proc.Params, e.Args)
	if asStmt && !isVoid(proc.Result) {
		// Modula-3 would require EVAL; MiniM3 tolerates discarding results.
		_ = asStmt
	}
	return proc.Result
}

// tryReceiver types an expression quietly and returns its object type, or
// nil if it is not object-typed or fails to type.
func (c *checker) tryReceiver(x ast.Expr) *types.Object {
	saved := len(c.errs)
	t := c.expr(x)
	if len(c.errs) > saved {
		c.errs = c.errs[:saved]
		return nil
	}
	o, _ := t.(*types.Object)
	return o
}

func (c *checker) methodCall(e *ast.CallExpr, q *ast.QualifyExpr, recv *types.Object, m *types.Method, asStmt bool) types.Type {
	if len(e.Args) != len(m.Params) {
		c.errorf(e.Pos(), "method %s.%s expects %d arguments, got %d",
			recv, m.Name, len(m.Params), len(e.Args))
	}
	n := len(e.Args)
	if len(m.Params) < n {
		n = len(m.Params)
	}
	for i := 0; i < n; i++ {
		at := c.expr(e.Args[i])
		if at == nil {
			continue
		}
		if m.Modes[i] == types.VarMode {
			if !ast.IsDesignator(e.Args[i]) {
				c.errorf(e.Args[i].Pos(), "VAR argument must be a designator")
			}
			if at.ID() != m.Params[i].ID() {
				c.errorf(e.Args[i].Pos(), "VAR argument type %s must equal formal type %s",
					at, m.Params[i])
			}
		} else if !c.u.AssignableTo(at, m.Params[i]) {
			c.errorf(e.Args[i].Pos(), "cannot pass %s as %s", at, m.Params[i])
		}
	}
	c.facts.setCall(e, &CallInfo{Kind: MethodCall, Recv: q.X, Method: m, RecvType: recv})
	return m.Result
}

func (c *checker) checkArgs(e *ast.CallExpr, params []*VarSym, args []ast.Expr) {
	if len(args) != len(params) {
		c.errorf(e.Pos(), "call expects %d arguments, got %d", len(params), len(args))
	}
	n := len(args)
	if len(params) < n {
		n = len(params)
	}
	for i := 0; i < n; i++ {
		at := c.expr(args[i])
		if at == nil {
			continue
		}
		p := params[i]
		if p.Mode == types.VarMode {
			if !ast.IsDesignator(args[i]) {
				c.errorf(args[i].Pos(), "VAR argument must be a designator")
			}
			// Modula-3 requires identical types for VAR actuals; this is
			// what lets open-world AddressTaken check type equality only.
			if at.ID() != p.Type.ID() {
				c.errorf(args[i].Pos(), "VAR argument type %s must equal formal type %s", at, p.Type)
			}
		} else if !c.u.AssignableTo(at, p.Type) {
			c.errorf(args[i].Pos(), "cannot pass %s as %s (parameter %s)", at, p.Type, p.Name)
		}
	}
	// Type remaining args for error recovery.
	for i := n; i < len(args); i++ {
		c.expr(args[i])
	}
}

func (c *checker) builtinCall(e *ast.CallExpr, bk BuiltinKind, asStmt bool) types.Type {
	c.facts.setCall(e, &CallInfo{Kind: BuiltinCall, Builtin: bk})
	argTypes := make([]types.Type, len(e.Args))
	for i, a := range e.Args {
		argTypes[i] = c.expr(a)
	}
	need := func(n int) bool {
		if len(e.Args) != n {
			c.errorf(e.Pos(), "builtin expects %d argument(s), got %d", n, len(e.Args))
			return false
		}
		for _, t := range argTypes {
			if t == nil {
				return false
			}
		}
		return true
	}
	switch bk {
	case BuiltinNumber:
		if need(1) {
			if _, ok := argTypes[0].(*types.Array); !ok {
				c.errorf(e.Pos(), "NUMBER requires an open array, got %s", argTypes[0])
			}
		}
		return c.u.IntT
	case BuiltinAbs:
		if need(1) && !isInt(argTypes[0]) {
			c.errorf(e.Pos(), "ABS requires INTEGER")
		}
		return c.u.IntT
	case BuiltinMin, BuiltinMax:
		if need(2) && (!isInt(argTypes[0]) || !isInt(argTypes[1])) {
			c.errorf(e.Pos(), "MIN/MAX require INTEGER operands")
		}
		return c.u.IntT
	case BuiltinOrd:
		if need(1) && !isChar(argTypes[0]) {
			c.errorf(e.Pos(), "ORD requires CHAR")
		}
		return c.u.IntT
	case BuiltinChr:
		if need(1) && !isInt(argTypes[0]) {
			c.errorf(e.Pos(), "CHR requires INTEGER")
		}
		return c.u.CharT
	case BuiltinInc, BuiltinDec:
		if len(e.Args) != 1 && len(e.Args) != 2 {
			c.errorf(e.Pos(), "INC/DEC expect 1 or 2 arguments")
			return c.u.VoidT
		}
		if !ast.IsDesignator(e.Args[0]) {
			c.errorf(e.Args[0].Pos(), "INC/DEC require a designator")
		}
		if argTypes[0] != nil && !isInt(argTypes[0]) {
			c.errorf(e.Pos(), "INC/DEC require INTEGER designator")
		}
		if len(e.Args) == 2 && argTypes[1] != nil && !isInt(argTypes[1]) {
			c.errorf(e.Pos(), "INC/DEC step must be INTEGER")
		}
		return c.u.VoidT
	case BuiltinPutInt:
		if need(1) && !isInt(argTypes[0]) {
			c.errorf(e.Pos(), "PutInt requires INTEGER")
		}
		return c.u.VoidT
	case BuiltinPutChar:
		if need(1) && !isChar(argTypes[0]) {
			c.errorf(e.Pos(), "PutChar requires CHAR")
		}
		return c.u.VoidT
	case BuiltinPutText:
		if need(1) && !isText(argTypes[0]) {
			c.errorf(e.Pos(), "PutText requires TEXT")
		}
		return c.u.VoidT
	case BuiltinPutLn:
		need(0)
		return c.u.VoidT
	case BuiltinAssert:
		if need(1) && !isBool(argTypes[0]) {
			c.errorf(e.Pos(), "Assert requires BOOLEAN")
		}
		return c.u.VoidT
	case BuiltinTextLen:
		if need(1) && !isText(argTypes[0]) {
			c.errorf(e.Pos(), "TextLen requires TEXT")
		}
		return c.u.IntT
	case BuiltinTextChar:
		if need(2) {
			if !isText(argTypes[0]) || !isInt(argTypes[1]) {
				c.errorf(e.Pos(), "TextChar requires (TEXT, INTEGER)")
			}
		}
		return c.u.CharT
	case BuiltinIntToText:
		if need(1) && !isInt(argTypes[0]) {
			c.errorf(e.Pos(), "IntToText requires INTEGER")
		}
		return c.u.TextT
	case BuiltinHalt:
		need(0)
		return c.u.VoidT
	}
	return c.u.VoidT
}
