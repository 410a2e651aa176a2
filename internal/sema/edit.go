package sema

import (
	"fmt"

	"tbaa/internal/ast"
	"tbaa/internal/token"
	"tbaa/internal/types"
)

// ReplaceProc type-checks a replacement declaration for an existing
// procedure against the already-checked module and installs it in
// Procs/ProcByName, returning the new Procedure. It is the sema half of
// the incremental edit path: nothing outside the one procedure is
// re-checked, and the type universe stays frozen — Precompute'd caches,
// type IDs, and every other procedure's symbols remain valid, which is
// what lets the analyses above rebuild from a one-procedure dirty set.
//
// Freezing the universe imposes two restrictions on the edited
// declaration, both reported as ordinary check errors: every type
// expression must be a declared type name (composite type expressions
// would mint new universe types), and the signature must match the
// replaced procedure's exactly (procedure types are interned in the
// universe, and call sites are not re-checked).
//
// The new Procedure carries its own Facts, so the replaced body's
// facts and AST go with the replaced Procedure. ReplaceProc mutates
// Procs and ProcByName; callers must not run it concurrently with
// anything reading the Program.
func (p *Program) ReplaceProc(decl *ast.ProcDecl) (*Procedure, error) {
	old := p.ProcByName[decl.Name]
	if old == nil {
		return nil, ErrorList{&Error{Pos: decl.NamePos,
			Msg: fmt.Sprintf("edit: module %s declares no procedure %s", p.Module.Name, decl.Name)}}
	}
	c := &checker{prog: p, u: p.Universe, typeNames: p.typeNames,
		consts: make(map[string]*ConstSym)}
	// Module-level constants live in checker state that Check discarded;
	// rebuild them so the edited body can reference them. The module
	// already checked, so re-declaring them reports nothing new.
	for _, d := range p.Module.Decls {
		if cd, ok := d.(*ast.ConstDecl); ok {
			c.declareConst(cd)
		}
	}

	// Signature: same arity, parameter types, modes, and result as the
	// procedure being replaced, so the interned Proc type is reused and
	// existing call sites (and method bindings) stay well-typed.
	proc := &Procedure{Name: decl.Name, Decl: decl, Body: decl.Body,
		Result: old.Result, Sig: old.Sig, MethodOf: old.MethodOf}
	result := types.Type(c.u.VoidT)
	if decl.Result != nil {
		result = c.frozenType(decl.Result, decl.NamePos)
	}
	if result != old.Result {
		c.errorf(decl.NamePos, "edit: %s result type %s does not match the declared %s",
			decl.Name, result, old.Result)
	}
	for _, pr := range decl.Params {
		pt := c.frozenType(pr.Type, pr.NamePos)
		for _, name := range pr.Names {
			v := &VarSym{Name: name, Type: pt, Kind: ParamVar,
				Mode: paramMode(pr.Mode), Proc: proc}
			proc.Params = append(proc.Params, v)
		}
	}
	if len(proc.Params) != len(old.Params) {
		c.errorf(decl.NamePos, "edit: %s declares %d parameters, the module declares %d",
			decl.Name, len(proc.Params), len(old.Params))
	} else {
		for i, prm := range proc.Params {
			if prm.Type != old.Params[i].Type || prm.Mode != old.Params[i].Mode {
				c.errorf(decl.NamePos, "edit: parameter %s of %s does not match the declared signature",
					prm.Name, decl.Name)
			}
		}
	}
	if len(c.errs) > 0 {
		return nil, c.errs
	}

	// Check the body exactly as checkProcBodies does, under a scope stack
	// of globals then params/locals.
	c.pushScope()
	for _, g := range p.Globals {
		c.declare(g, decl.NamePos)
	}
	c.curProc = proc
	proc.Facts = newFacts(decl.Nodes)
	c.facts = proc.Facts
	c.pushScope()
	for _, prm := range proc.Params {
		c.declare(prm, decl.NamePos)
	}
	for _, d := range decl.Locals {
		switch d := d.(type) {
		case *ast.VarDecl:
			t := c.frozenType(d.Type, d.NamePos)
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
	c.stmts(decl.Body)
	c.popScope()
	c.curProc = nil
	if len(c.errs) > 0 {
		return nil, c.errs
	}

	for i, q := range p.Procs {
		if q == old {
			p.Procs[i] = proc
		}
	}
	p.ProcByName[decl.Name] = proc
	return proc, nil
}

// frozenType resolves a type expression under the frozen universe:
// only declared type names are admitted, because the composite forms
// (ARRAY/REF/RECORD/OBJECT) would create new universe types and
// invalidate the precomputed subtype caches every analysis generation
// shares.
func (c *checker) frozenType(t ast.TypeExpr, pos token.Pos) types.Type {
	nt, ok := t.(*ast.NamedType)
	if !ok {
		c.errorf(pos, "edit: only declared type names may appear in an edited procedure; declare the type in the module and re-upload")
		return c.u.IntT
	}
	return c.resolveType(nt)
}
