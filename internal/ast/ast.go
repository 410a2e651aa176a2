// Package ast defines the abstract syntax tree for MiniM3.
//
// The tree is deliberately close to Modula-3's surface syntax: the three
// memory-reference forms the paper analyzes (Qualify p.f, Dereference p^,
// Subscript p[i]) appear as distinct designator nodes.
package ast

import "tbaa/internal/token"

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// Num is embedded in every node the checker records facts for: each
// expression, and the FOR and WITH statements, which declare a
// variable. The parser numbers these nodes densely from 0 within each
// procedure declaration (ProcDecl.Nodes counts them), and numbers the
// global initializers and the module body in one more sequence
// (Module.Nodes), so per-node facts fit in slices.
type Num struct{ N int32 }

// Number returns the node's number within its declaration.
func (n Num) Number() int { return int(n.N) }

// ---------------------------------------------------------------------------
// Module structure

// Module is a compilation unit.
type Module struct {
	Name    string
	Decls   []Decl
	Body    []Stmt // main body between BEGIN and END
	NamePos token.Pos
	// Nodes counts the numbered nodes outside procedure declarations:
	// global initializers and the module body (see Num).
	Nodes int
}

func (m *Module) Pos() token.Pos { return m.NamePos }

// Decl is a top-level or procedure-local declaration.
type Decl interface {
	Node
	declNode()
}

// TypeDecl declares a named type: TYPE Name = Type.
type TypeDecl struct {
	Name    string
	Type    TypeExpr
	NamePos token.Pos
}

// ConstDecl declares a named constant: CONST Name = Expr.
type ConstDecl struct {
	Name    string
	Value   Expr
	NamePos token.Pos
}

// VarDecl declares variables: VAR a, b: T := Init.
type VarDecl struct {
	Names   []string
	Type    TypeExpr
	Init    Expr // may be nil
	NamePos token.Pos
}

// ProcDecl declares a procedure.
type ProcDecl struct {
	Name    string
	Params  []*Param
	Result  TypeExpr // nil for proper procedures
	Locals  []Decl   // VAR/CONST/TYPE decls before BEGIN
	Body    []Stmt
	NamePos token.Pos
	// Nodes counts the numbered nodes of the declaration (see Num).
	Nodes int
}

// Param is a formal parameter. Mode VAR makes it pass-by-reference, which
// is one of the two address-taking constructs in the language.
type Param struct {
	Mode    ParamMode
	Names   []string
	Type    TypeExpr
	NamePos token.Pos
}

// ParamMode is the passing mode of a formal.
type ParamMode int

// Parameter passing modes.
const (
	ValueParam ParamMode = iota
	VarParam             // VAR: by reference (address taken)
	ReadonlyParam
)

func (d *TypeDecl) declNode()  {}
func (d *ConstDecl) declNode() {}
func (d *VarDecl) declNode()   {}
func (d *ProcDecl) declNode()  {}

func (d *TypeDecl) Pos() token.Pos  { return d.NamePos }
func (d *ConstDecl) Pos() token.Pos { return d.NamePos }
func (d *VarDecl) Pos() token.Pos   { return d.NamePos }
func (d *ProcDecl) Pos() token.Pos  { return d.NamePos }
func (p *Param) Pos() token.Pos     { return p.NamePos }

// ---------------------------------------------------------------------------
// Type expressions

// TypeExpr is a syntactic type.
type TypeExpr interface {
	Node
	typeExprNode()
}

// NamedType refers to a declared type or a builtin (INTEGER, BOOLEAN, CHAR).
type NamedType struct {
	Name    string
	NamePos token.Pos
}

// ObjectType is [Super] OBJECT fields [METHODS ...] [OVERRIDES ...] END,
// optionally BRANDED.
type ObjectType struct {
	Super     string // "" if rooted at the builtin ROOT
	Branded   bool
	Brand     string // optional explicit brand
	Fields    []*FieldDecl
	Methods   []*MethodDecl
	Overrides []*OverrideDecl
	ObjPos    token.Pos
}

// FieldDecl declares object or record fields: a, b: T.
type FieldDecl struct {
	Names   []string
	Type    TypeExpr
	NamePos token.Pos
}

// MethodDecl declares a method with an optional default implementation.
type MethodDecl struct {
	Name    string
	Params  []*Param
	Result  TypeExpr // nil for proper methods
	Default string   // procedure name, "" if abstract
	NamePos token.Pos
}

// OverrideDecl binds a method name to a procedure in a subtype.
type OverrideDecl struct {
	Name    string
	Proc    string
	NamePos token.Pos
}

// RecordType is RECORD fields END (a value type, unlike objects).
type RecordType struct {
	Fields []*FieldDecl
	RecPos token.Pos
}

// ArrayType is ARRAY OF Elem: an open array, heap-allocated with a dope
// vector, as in Modula-3's REF ARRAY OF T.
type ArrayType struct {
	Elem   TypeExpr
	ArrPos token.Pos
}

// RefType is REF T, a traced reference to T.
type RefType struct {
	Elem   TypeExpr
	RefPos token.Pos
}

func (t *NamedType) typeExprNode()  {}
func (t *ObjectType) typeExprNode() {}
func (t *RecordType) typeExprNode() {}
func (t *ArrayType) typeExprNode()  {}
func (t *RefType) typeExprNode()    {}

func (t *NamedType) Pos() token.Pos  { return t.NamePos }
func (t *ObjectType) Pos() token.Pos { return t.ObjPos }
func (t *RecordType) Pos() token.Pos { return t.RecPos }
func (t *ArrayType) Pos() token.Pos  { return t.ArrPos }
func (t *RefType) Pos() token.Pos    { return t.RefPos }

// ---------------------------------------------------------------------------
// Statements

// Stmt is a statement.
type Stmt interface {
	Node
	stmtNode()
}

// AssignStmt is Designator := Expr.
type AssignStmt struct {
	LHS Expr // a designator
	RHS Expr
}

// CallStmt is a procedure or method call used as a statement.
type CallStmt struct {
	Call *CallExpr
}

// IfStmt is IF/ELSIF/ELSE/END.
type IfStmt struct {
	Cond  Expr
	Then  []Stmt
	Else  []Stmt // may contain a single nested IfStmt for ELSIF chains
	IfPos token.Pos
}

// WhileStmt is WHILE Cond DO Body END.
type WhileStmt struct {
	Cond     Expr
	Body     []Stmt
	WhilePos token.Pos
}

// RepeatStmt is REPEAT Body UNTIL Cond.
type RepeatStmt struct {
	Body      []Stmt
	Cond      Expr
	RepeatPos token.Pos
}

// ForStmt is FOR i := Lo TO Hi [BY Step] DO Body END.
type ForStmt struct {
	Num
	Var    string
	Lo, Hi Expr
	Step   Expr // nil for BY 1
	Body   []Stmt
	ForPos token.Pos
}

// LoopStmt is LOOP Body END, exited by EXIT.
type LoopStmt struct {
	Body    []Stmt
	LoopPos token.Pos
}

// ExitStmt is EXIT.
type ExitStmt struct {
	ExitPos token.Pos
}

// ReturnStmt is RETURN [Expr].
type ReturnStmt struct {
	Value  Expr // may be nil
	RetPos token.Pos
}

// WithStmt is WITH Name = Expr DO Body END. When Expr is a designator the
// binding is an alias for the denoted location; this is the second
// address-taking construct in the language.
type WithStmt struct {
	Num
	Name    string
	Expr    Expr
	Body    []Stmt
	WithPos token.Pos
}

func (s *AssignStmt) stmtNode() {}
func (s *CallStmt) stmtNode()   {}
func (s *IfStmt) stmtNode()     {}
func (s *WhileStmt) stmtNode()  {}
func (s *RepeatStmt) stmtNode() {}
func (s *ForStmt) stmtNode()    {}
func (s *LoopStmt) stmtNode()   {}
func (s *ExitStmt) stmtNode()   {}
func (s *ReturnStmt) stmtNode() {}
func (s *WithStmt) stmtNode()   {}

func (s *AssignStmt) Pos() token.Pos { return s.LHS.Pos() }
func (s *CallStmt) Pos() token.Pos   { return s.Call.Pos() }
func (s *IfStmt) Pos() token.Pos     { return s.IfPos }
func (s *WhileStmt) Pos() token.Pos  { return s.WhilePos }
func (s *RepeatStmt) Pos() token.Pos { return s.RepeatPos }
func (s *ForStmt) Pos() token.Pos    { return s.ForPos }
func (s *LoopStmt) Pos() token.Pos   { return s.LoopPos }
func (s *ExitStmt) Pos() token.Pos   { return s.ExitPos }
func (s *ReturnStmt) Pos() token.Pos { return s.RetPos }
func (s *WithStmt) Pos() token.Pos   { return s.WithPos }

// ---------------------------------------------------------------------------
// Expressions

// Expr is an expression.
type Expr interface {
	Node
	Number() int
	exprNode()
}

// Ident names a variable, constant, procedure, or type.
type Ident struct {
	Num
	Name    string
	NamePos token.Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Num
	Value  int64
	LitPos token.Pos
}

// BoolLit is TRUE or FALSE.
type BoolLit struct {
	Num
	Value  bool
	LitPos token.Pos
}

// CharLit is a character literal.
type CharLit struct {
	Num
	Value  byte
	LitPos token.Pos
}

// TextLit is a text (string) literal.
type TextLit struct {
	Num
	Value  string
	LitPos token.Pos
}

// NilLit is NIL.
type NilLit struct {
	Num
	LitPos token.Pos
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Num
	Op   token.Kind // PLUS MINUS STAR DIV MOD AND OR EQ NEQ LT GT LE GE AMP
	L, R Expr
}

// UnaryExpr is unary minus or NOT.
type UnaryExpr struct {
	Num
	Op    token.Kind // MINUS NOT
	X     Expr
	OpPos token.Pos
}

// QualifyExpr is p.f — the paper's "Qualify" access path.
type QualifyExpr struct {
	Num
	X     Expr
	Field string
}

// DerefExpr is p^ — the paper's "Dereference" access path.
type DerefExpr struct {
	Num
	X Expr
}

// SubscriptExpr is p[i] — the paper's "Subscript" access path.
type SubscriptExpr struct {
	Num
	X     Expr
	Index Expr
}

// CallExpr is a procedure call f(args), method call p.m(args), or a
// builtin (NUMBER, ABS, ORD, CHR, MIN, MAX, Put*). The parser produces a
// CallExpr whose Fun is a designator; sema classifies it.
type CallExpr struct {
	Num
	Fun  Expr
	Args []Expr
}

// NewExpr is NEW(T) or NEW(ArrayT, n).
type NewExpr struct {
	Num
	TypeName string
	Len      Expr // for open arrays; nil otherwise
	NewPos   token.Pos
}

func (e *Ident) exprNode()         {}
func (e *IntLit) exprNode()        {}
func (e *BoolLit) exprNode()       {}
func (e *CharLit) exprNode()       {}
func (e *TextLit) exprNode()       {}
func (e *NilLit) exprNode()        {}
func (e *BinaryExpr) exprNode()    {}
func (e *UnaryExpr) exprNode()     {}
func (e *QualifyExpr) exprNode()   {}
func (e *DerefExpr) exprNode()     {}
func (e *SubscriptExpr) exprNode() {}
func (e *CallExpr) exprNode()      {}
func (e *NewExpr) exprNode()       {}

func (e *Ident) Pos() token.Pos         { return e.NamePos }
func (e *IntLit) Pos() token.Pos        { return e.LitPos }
func (e *BoolLit) Pos() token.Pos       { return e.LitPos }
func (e *CharLit) Pos() token.Pos       { return e.LitPos }
func (e *TextLit) Pos() token.Pos       { return e.LitPos }
func (e *NilLit) Pos() token.Pos        { return e.LitPos }
func (e *BinaryExpr) Pos() token.Pos    { return e.L.Pos() }
func (e *UnaryExpr) Pos() token.Pos     { return e.OpPos }
func (e *QualifyExpr) Pos() token.Pos   { return e.X.Pos() }
func (e *DerefExpr) Pos() token.Pos     { return e.X.Pos() }
func (e *SubscriptExpr) Pos() token.Pos { return e.X.Pos() }
func (e *CallExpr) Pos() token.Pos      { return e.Fun.Pos() }
func (e *NewExpr) Pos() token.Pos       { return e.NewPos }

// IsDesignator reports whether e denotes a location (can be assigned,
// aliased by WITH, or passed by reference).
func IsDesignator(e Expr) bool {
	switch e := e.(type) {
	case *Ident:
		return true
	case *QualifyExpr:
		return true
	case *DerefExpr:
		return true
	case *SubscriptExpr:
		return true
	case *CallExpr:
		_ = e
		return false
	default:
		return false
	}
}
