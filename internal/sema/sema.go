// Package sema type-checks MiniM3 modules and produces the symbol and type
// information that lowering, alias analysis, and the optimizer consume.
package sema

import (
	"fmt"

	"tbaa/internal/ast"
	"tbaa/internal/token"
	"tbaa/internal/types"
)

// Error is a semantic error.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a list of semantic errors; it implements error.
type ErrorList []*Error

func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	s := l[0].Error()
	if len(l) > 1 {
		s += fmt.Sprintf(" (and %d more)", len(l)-1)
	}
	return s
}

// VarKind classifies a variable symbol.
type VarKind int

// Variable kinds.
const (
	GlobalVar VarKind = iota
	LocalVar
	ParamVar
	ForVar  // FOR loop index (implicitly declared INTEGER)
	WithVar // WITH alias binding
)

// VarSym is a variable (or alias) symbol.
type VarSym struct {
	Name string
	Type types.Type
	Kind VarKind
	Mode types.ParamMode // for ParamVar
	Proc *Procedure      // owning procedure; nil for globals
	// WithExpr is the aliased designator for WithVar bindings when the
	// WITH right-hand side denotes a location; nil when it was a value.
	WithExpr ast.Expr
}

// ByRef reports whether the variable is a pass-by-reference formal.
func (v *VarSym) ByRef() bool { return v.Kind == ParamVar && v.Mode == types.VarMode }

// ConstSym is a named compile-time constant.
type ConstSym struct {
	Name string
	Type types.Type
	Int  int64
	Bool bool
	Text string
	Char byte
}

// Procedure is a checked procedure.
type Procedure struct {
	Name   string
	Params []*VarSym
	Result types.Type // Void for proper procedures
	Locals []*VarSym  // declared locals (not params)
	Body   []ast.Stmt
	Decl   *ast.ProcDecl
	Sig    *types.Proc
	// MethodOf is non-nil when the procedure implements a method; it is
	// the object type whose METHODS/OVERRIDES section named it.
	MethodOf *types.Object
	// Facts records what checking the declaration found about its nodes.
	Facts *Facts
}

// BuiltinKind identifies a builtin operation.
type BuiltinKind int

// Builtin operations.
const (
	NotBuiltin BuiltinKind = iota
	BuiltinNumber
	BuiltinAbs
	BuiltinMin
	BuiltinMax
	BuiltinOrd
	BuiltinChr
	BuiltinInc
	BuiltinDec
	BuiltinPutInt
	BuiltinPutChar
	BuiltinPutText
	BuiltinPutLn
	BuiltinAssert
	BuiltinTextLen
	BuiltinTextChar
	BuiltinIntToText
	BuiltinHalt
)

var builtinNames = map[string]BuiltinKind{
	"NUMBER": BuiltinNumber, "ABS": BuiltinAbs, "MIN": BuiltinMin,
	"MAX": BuiltinMax, "ORD": BuiltinOrd, "CHR": BuiltinChr,
	"INC": BuiltinInc, "DEC": BuiltinDec,
	"PutInt": BuiltinPutInt, "PutChar": BuiltinPutChar,
	"PutText": BuiltinPutText, "PutLn": BuiltinPutLn,
	"Assert": BuiltinAssert, "TextLen": BuiltinTextLen,
	"TextChar": BuiltinTextChar, "IntToText": BuiltinIntToText,
	"Halt": BuiltinHalt,
}

// CallKind classifies a call expression.
type CallKind int

// Call kinds.
const (
	ProcCall CallKind = iota
	MethodCall
	BuiltinCall
)

// CallInfo is sema's resolution of a CallExpr.
type CallInfo struct {
	Kind    CallKind
	Proc    *Procedure    // for ProcCall
	Builtin BuiltinKind   // for BuiltinCall
	Recv    ast.Expr      // for MethodCall: receiver designator
	Method  *types.Method // for MethodCall
	// RecvType is the static type of the receiver (for devirtualization).
	RecvType *types.Object
}

// Program is a fully checked module.
type Program struct {
	Module     *ast.Module
	Universe   *types.Universe
	Globals    []*VarSym
	Procs      []*Procedure
	ProcByName map[string]*Procedure

	// Facts records what checking found about the nodes outside
	// procedure declarations: global initializers and the module body.
	// Each Procedure carries its own.
	Facts *Facts
	// GlobalInits records initializers for globals, in declaration order.
	GlobalInits []GlobalInit

	typeNames map[string]types.Type
}

// GlobalInit pairs a global with its initializer expression.
type GlobalInit struct {
	Var  *VarSym
	Expr ast.Expr
}

// TypeNamed resolves a declared or builtin type name, or nil.
func (p *Program) TypeNamed(name string) types.Type { return p.typeNames[name] }

// Facts is what checking one declaration found about its nodes, kept
// in slices indexed by the numbers the parser gave them (ast.Num). A
// procedure's Facts are replaced with the procedure, so an edit leaves
// nothing of the old body behind.
type Facts struct {
	types  []types.Type // expression → its type
	syms   []*VarSym    // Ident → variable; ForStmt → index; WithStmt → binding
	consts map[*ast.Ident]*ConstSym
	calls  map[*ast.CallExpr]*CallInfo
}

func newFacts(nodes int) *Facts {
	return &Facts{types: make([]types.Type, nodes), syms: make([]*VarSym, nodes)}
}

// TypeOf returns the type of an expression, or nil if it failed to check.
func (f *Facts) TypeOf(e ast.Expr) types.Type { return f.types[e.Number()] }

// SymOf returns the variable an identifier resolves to, or nil.
func (f *Facts) SymOf(e *ast.Ident) *VarSym { return f.syms[e.Number()] }

// ConstOf returns the constant an identifier resolves to, or nil.
func (f *Facts) ConstOf(e *ast.Ident) *ConstSym { return f.consts[e] }

// CallOf returns the resolution of a call expression, or nil.
func (f *Facts) CallOf(e *ast.CallExpr) *CallInfo { return f.calls[e] }

// ForSym returns the index variable a FOR loop declares.
func (f *Facts) ForSym(s *ast.ForStmt) *VarSym { return f.syms[s.Number()] }

// WithSym returns the binding a WITH statement declares.
func (f *Facts) WithSym(s *ast.WithStmt) *VarSym { return f.syms[s.Number()] }

func (f *Facts) setConst(e *ast.Ident, cs *ConstSym) {
	if f.consts == nil {
		f.consts = make(map[*ast.Ident]*ConstSym)
	}
	f.consts[e] = cs
}

func (f *Facts) setCall(e *ast.CallExpr, ci *CallInfo) {
	if f.calls == nil {
		f.calls = make(map[*ast.CallExpr]*CallInfo)
	}
	f.calls[e] = ci
}
