// Package parser implements a recursive-descent parser for MiniM3.
package parser

import (
	"fmt"
	"strconv"

	"tbaa/internal/ast"
	"tbaa/internal/lexer"
	"tbaa/internal/token"
)

// Error is a syntax error.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

// ErrorList is a list of syntax errors; it implements error.
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

// MaxNesting bounds how deeply expressions, statements and type
// expressions may nest, counting each operator of a left-associative
// chain (a + b + c, p.f.g, p^^) as one level. The checker and the
// lowerer walk the tree recursively, so without a bound a source of a
// few megabytes of "(" exhausts the goroutine stack and kills the
// process. Real programs stay far below it.
const MaxNesting = 1000

// maxErrors caps the syntax errors reported after the lexical ones.
const maxErrors = 50

// Parse parses a MiniM3 module from src. file is used in positions.
//
// Errors are reported lexical errors first, all of them, including
// those past the point where parsing stopped, then syntax errors while
// the list holds fewer than 50.
func Parse(file, src string) (*ast.Module, error) {
	return parse(file, src, MaxNesting)
}

func parse(file, src string, limit int) (*ast.Module, error) {
	p := &parser{lx: lexer.New(file, src), limit: limit}
	p.tok = p.lx.Next()
	m := p.run()
	for p.tok.Kind != token.EOF {
		p.tok = p.lx.Next()
	}
	lexErrs := p.lx.Errors()
	keep := min(len(p.errs), max(0, maxErrors-len(lexErrs)))
	if len(lexErrs)+keep == 0 {
		return m, nil
	}
	errs := make(ErrorList, 0, len(lexErrs)+keep)
	for _, le := range lexErrs {
		errs = append(errs, &Error{Pos: le.Pos, Msg: le.Msg})
	}
	return m, append(errs, p.errs[:keep]...)
}

// parser reads the token stream one token at a time: the current token
// is its only lookahead.
type parser struct {
	lx    *lexer.Lexer
	tok   token.Token
	errs  ErrorList // syntax errors, at most maxErrors
	depth int       // nesting of the node being parsed
	limit int       // the bound on depth
	nodes int32     // node numbers handed out in the current declaration
}

// bailout abandons a parse whose nesting passed the limit.
type bailout struct{}

// run parses the module, or returns nil if the parse was abandoned.
func (p *parser) run() (m *ast.Module) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
		}
	}()
	return p.module()
}

func (p *parser) cur() token.Token { return p.tok }
func (p *parser) kind() token.Kind { return p.tok.Kind }

func (p *parser) next() token.Token {
	t := p.tok
	if t.Kind != token.EOF {
		p.tok = p.lx.Next()
	}
	return t
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.errs) < maxErrors {
		p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// nest enters one level of nesting and returns the depth it left, for
// a deferred restore; past the limit it reports the error at the
// current token and abandons the parse.
func (p *parser) nest() int {
	p.depth++
	if p.depth > p.limit {
		p.errorf(p.tok.Pos, "nesting deeper than %d levels", p.limit)
		panic(bailout{})
	}
	return p.depth - 1
}

func (p *parser) restore(depth int) { p.depth = depth }

// num hands out the next node number of the current declaration.
func (p *parser) num() ast.Num {
	n := ast.Num{N: p.nodes}
	p.nodes++
	return n
}

func (p *parser) expect(k token.Kind) token.Token {
	if p.kind() != k {
		p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
		return token.Token{Kind: k, Pos: p.cur().Pos}
	}
	return p.next()
}

func (p *parser) accept(k token.Kind) bool {
	if p.kind() == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) ident() (string, token.Pos) {
	t := p.expect(token.IDENT)
	return t.Lit, t.Pos
}

// module = MODULE Ident ";" {Decl} [BEGIN StmtList] END Ident "."
func (p *parser) module() *ast.Module {
	p.expect(token.MODULE)
	name, npos := p.ident()
	p.expect(token.SEMICOLON)
	m := &ast.Module{Name: name, NamePos: npos}
	m.Decls = p.decls()
	if p.accept(token.BEGIN) {
		m.Body = p.stmtList(token.END)
	}
	p.expect(token.END)
	endName, epos := p.ident()
	if endName != name {
		p.errorf(epos, "module %s ends with END %s", name, endName)
	}
	p.expect(token.DOT)
	m.Nodes = int(p.nodes)
	return m
}

func (p *parser) decls() []ast.Decl {
	var ds []ast.Decl
	for {
		switch p.kind() {
		case token.TYPE:
			p.next()
			for p.kind() == token.IDENT {
				name, npos := p.ident()
				p.expect(token.EQ)
				t := p.typeExpr()
				p.expect(token.SEMICOLON)
				ds = append(ds, &ast.TypeDecl{Name: name, Type: t, NamePos: npos})
			}
		case token.CONST:
			p.next()
			for p.kind() == token.IDENT {
				name, npos := p.ident()
				p.expect(token.EQ)
				v := p.expr()
				p.expect(token.SEMICOLON)
				ds = append(ds, &ast.ConstDecl{Name: name, Value: v, NamePos: npos})
			}
		case token.VAR:
			p.next()
			for p.kind() == token.IDENT {
				ds = append(ds, p.varDecl())
			}
		case token.PROCEDURE:
			ds = append(ds, p.procDecl())
		default:
			return ds
		}
	}
}

// varDecl = IdentList ":" TypeExpr [":=" Expr] ";"
func (p *parser) varDecl() *ast.VarDecl {
	names, npos := p.identList()
	p.expect(token.COLON)
	t := p.typeExpr()
	var init ast.Expr
	if p.accept(token.ASSIGN) {
		init = p.expr()
	}
	p.expect(token.SEMICOLON)
	return &ast.VarDecl{Names: names, Type: t, Init: init, NamePos: npos}
}

func (p *parser) identList() ([]string, token.Pos) {
	name, npos := p.ident()
	names := []string{name}
	for p.accept(token.COMMA) {
		n, _ := p.ident()
		names = append(names, n)
	}
	return names, npos
}

// procDecl = PROCEDURE Ident Signature "=" {LocalDecl} BEGIN StmtList END Ident ";"
func (p *parser) procDecl() *ast.ProcDecl {
	p.expect(token.PROCEDURE)
	outer := p.nodes
	p.nodes = 0
	defer func() { p.nodes = outer }()
	name, npos := p.ident()
	params, result := p.signature()
	p.expect(token.EQ)
	d := &ast.ProcDecl{Name: name, Params: params, Result: result, NamePos: npos}
	d.Locals = p.decls()
	p.expect(token.BEGIN)
	d.Body = p.stmtList(token.END)
	p.expect(token.END)
	endName, epos := p.ident()
	if endName != name {
		p.errorf(epos, "procedure %s ends with END %s", name, endName)
	}
	p.expect(token.SEMICOLON)
	d.Nodes = int(p.nodes)
	return d
}

// signature = "(" [Param {";" Param}] ")" [":" TypeExpr]
func (p *parser) signature() ([]*ast.Param, ast.TypeExpr) {
	p.expect(token.LPAREN)
	var params []*ast.Param
	if p.kind() != token.RPAREN {
		params = append(params, p.param())
		for p.accept(token.SEMICOLON) {
			params = append(params, p.param())
		}
	}
	p.expect(token.RPAREN)
	var result ast.TypeExpr
	if p.accept(token.COLON) {
		result = p.typeExpr()
	}
	return params, result
}

func (p *parser) param() *ast.Param {
	mode := ast.ValueParam
	switch p.kind() {
	case token.VAR:
		p.next()
		mode = ast.VarParam
	case token.READONLY:
		p.next()
		mode = ast.ReadonlyParam
	}
	names, npos := p.identList()
	p.expect(token.COLON)
	t := p.typeExpr()
	return &ast.Param{Mode: mode, Names: names, Type: t, NamePos: npos}
}

// typeExpr parses a type expression.
func (p *parser) typeExpr() ast.TypeExpr {
	defer p.restore(p.nest())
	pos := p.cur().Pos
	switch p.kind() {
	case token.ARRAY:
		p.next()
		p.expect(token.OF)
		return &ast.ArrayType{Elem: p.typeExpr(), ArrPos: pos}
	case token.REF:
		p.next()
		return &ast.RefType{Elem: p.typeExpr(), RefPos: pos}
	case token.RECORD:
		p.next()
		fields := p.fieldDecls(token.END)
		p.expect(token.END)
		return &ast.RecordType{Fields: fields, RecPos: pos}
	case token.BRANDED:
		p.next()
		brand := ""
		if p.kind() == token.STRING {
			brand = p.next().Lit
		}
		t := p.typeExpr()
		if ot, ok := t.(*ast.ObjectType); ok {
			ot.Branded = true
			ot.Brand = brand
			return ot
		}
		p.errorf(pos, "BRANDED requires an object type")
		return t
	case token.OBJECT:
		return p.objectType("", pos)
	case token.IDENT:
		name, npos := p.ident()
		if p.kind() == token.OBJECT {
			return p.objectType(name, npos)
		}
		return &ast.NamedType{Name: name, NamePos: npos}
	default:
		p.errorf(pos, "expected type, found %s", p.cur())
		p.next()
		return &ast.NamedType{Name: "INTEGER", NamePos: pos}
	}
}

// objectType = [Super] OBJECT fields [METHODS methods] [OVERRIDES overrides] END
func (p *parser) objectType(super string, pos token.Pos) *ast.ObjectType {
	p.expect(token.OBJECT)
	t := &ast.ObjectType{Super: super, ObjPos: pos}
	t.Fields = p.fieldDecls(token.METHODS, token.OVERRIDES, token.END)
	if p.accept(token.METHODS) {
		for p.kind() == token.IDENT {
			name, npos := p.ident()
			params, result := p.signature()
			def := ""
			if p.accept(token.ASSIGN) {
				def, _ = p.ident()
			}
			p.expect(token.SEMICOLON)
			t.Methods = append(t.Methods, &ast.MethodDecl{
				Name: name, Params: params, Result: result, Default: def, NamePos: npos,
			})
		}
	}
	if p.accept(token.OVERRIDES) {
		for p.kind() == token.IDENT {
			name, npos := p.ident()
			p.expect(token.ASSIGN)
			proc, _ := p.ident()
			p.expect(token.SEMICOLON)
			t.Overrides = append(t.Overrides, &ast.OverrideDecl{Name: name, Proc: proc, NamePos: npos})
		}
	}
	p.expect(token.END)
	return t
}

func (p *parser) fieldDecls(stop ...token.Kind) []*ast.FieldDecl {
	var fields []*ast.FieldDecl
	for p.kind() == token.IDENT {
		names, npos := p.identList()
		p.expect(token.COLON)
		t := p.typeExpr()
		fields = append(fields, &ast.FieldDecl{Names: names, Type: t, NamePos: npos})
		if !p.accept(token.SEMICOLON) {
			break
		}
	}
	return fields
}

// stmtList parses statements until one of the terminator kinds. Statements
// are separated by semicolons; empty statements are permitted.
func (p *parser) stmtList(stop ...token.Kind) []ast.Stmt {
	isStop := func(k token.Kind) bool {
		if k == token.EOF || k == token.ELSE || k == token.ELSIF || k == token.UNTIL {
			return true
		}
		for _, s := range stop {
			if k == s {
				return true
			}
		}
		return false
	}
	var ss []ast.Stmt
	for {
		for p.accept(token.SEMICOLON) {
		}
		if isStop(p.kind()) {
			return ss
		}
		s := p.stmt()
		if s != nil {
			ss = append(ss, s)
		}
		if !p.accept(token.SEMICOLON) {
			for p.accept(token.SEMICOLON) {
			}
			if isStop(p.kind()) {
				return ss
			}
			// Tolerate a missing semicolon between statements.
		}
	}
}

func (p *parser) stmt() ast.Stmt {
	defer p.restore(p.nest())
	pos := p.cur().Pos
	switch p.kind() {
	case token.IF:
		return p.ifStmt()
	case token.WHILE:
		p.next()
		cond := p.expr()
		p.expect(token.DO)
		body := p.stmtList(token.END)
		p.expect(token.END)
		return &ast.WhileStmt{Cond: cond, Body: body, WhilePos: pos}
	case token.REPEAT:
		p.next()
		body := p.stmtList(token.UNTIL)
		p.expect(token.UNTIL)
		cond := p.expr()
		return &ast.RepeatStmt{Body: body, Cond: cond, RepeatPos: pos}
	case token.LOOP:
		p.next()
		body := p.stmtList(token.END)
		p.expect(token.END)
		return &ast.LoopStmt{Body: body, LoopPos: pos}
	case token.EXIT:
		p.next()
		return &ast.ExitStmt{ExitPos: pos}
	case token.FOR:
		p.next()
		v, _ := p.ident()
		p.expect(token.ASSIGN)
		lo := p.expr()
		p.expect(token.TO)
		hi := p.expr()
		var step ast.Expr
		if p.accept(token.BY) {
			step = p.expr()
		}
		p.expect(token.DO)
		body := p.stmtList(token.END)
		p.expect(token.END)
		return &ast.ForStmt{Num: p.num(), Var: v, Lo: lo, Hi: hi, Step: step, Body: body, ForPos: pos}
	case token.RETURN:
		p.next()
		var v ast.Expr
		if p.kind() != token.SEMICOLON && p.kind() != token.END &&
			p.kind() != token.ELSE && p.kind() != token.ELSIF && p.kind() != token.UNTIL {
			v = p.expr()
		}
		return &ast.ReturnStmt{Value: v, RetPos: pos}
	case token.WITH:
		p.next()
		name, _ := p.ident()
		p.expect(token.EQ)
		e := p.expr()
		p.expect(token.DO)
		body := p.stmtList(token.END)
		p.expect(token.END)
		return &ast.WithStmt{Num: p.num(), Name: name, Expr: e, Body: body, WithPos: pos}
	case token.IDENT:
		lhs := p.designatorOrCall()
		if p.accept(token.ASSIGN) {
			rhs := p.expr()
			return &ast.AssignStmt{LHS: lhs, RHS: rhs}
		}
		if call, ok := lhs.(*ast.CallExpr); ok {
			return &ast.CallStmt{Call: call}
		}
		p.errorf(pos, "expected := or call, found %s", p.cur())
		return &ast.CallStmt{Call: &ast.CallExpr{Num: p.num(), Fun: lhs}}
	default:
		p.errorf(pos, "expected statement, found %s", p.cur())
		p.next()
		return nil
	}
}

func (p *parser) ifStmt() ast.Stmt {
	pos := p.cur().Pos
	p.next() // IF or ELSIF
	cond := p.expr()
	p.expect(token.THEN)
	then := p.stmtList(token.END)
	s := &ast.IfStmt{Cond: cond, Then: then, IfPos: pos}
	switch p.kind() {
	case token.ELSIF:
		s.Else = []ast.Stmt{p.ifStmtTail()}
	case token.ELSE:
		p.next()
		s.Else = p.stmtList(token.END)
		p.expect(token.END)
	default:
		p.expect(token.END)
	}
	return s
}

// ifStmtTail handles ELSIF chains: it parses as a nested IfStmt and shares
// the final END with the enclosing IF.
func (p *parser) ifStmtTail() ast.Stmt {
	defer p.restore(p.nest())
	pos := p.cur().Pos
	p.expect(token.ELSIF)
	cond := p.expr()
	p.expect(token.THEN)
	then := p.stmtList(token.END)
	s := &ast.IfStmt{Cond: cond, Then: then, IfPos: pos}
	switch p.kind() {
	case token.ELSIF:
		s.Else = []ast.Stmt{p.ifStmtTail()}
	case token.ELSE:
		p.next()
		s.Else = p.stmtList(token.END)
		p.expect(token.END)
	default:
		p.expect(token.END)
	}
	return s
}

// ---------------------------------------------------------------------------
// Expressions

// expr = simpleExpr [relOp simpleExpr]
func (p *parser) expr() ast.Expr {
	defer p.restore(p.nest())
	l := p.simpleExpr()
	switch p.kind() {
	case token.EQ, token.NEQ, token.LT, token.GT, token.LE, token.GE:
		op := p.next().Kind
		r := p.simpleExpr()
		return &ast.BinaryExpr{Num: p.num(), Op: op, L: l, R: r}
	}
	return l
}

// simpleExpr = ["+"|"-"] term {("+"|"-"|OR|"&") term}
func (p *parser) simpleExpr() ast.Expr {
	defer p.restore(p.depth)
	var l ast.Expr
	if p.kind() == token.MINUS {
		pos := p.next().Pos
		p.nest()
		l = &ast.UnaryExpr{Num: p.num(), Op: token.MINUS, X: p.term(), OpPos: pos}
	} else {
		p.accept(token.PLUS)
		l = p.term()
	}
	for {
		switch p.kind() {
		case token.PLUS, token.MINUS, token.OR, token.AMP:
			op := p.next().Kind
			p.nest()
			l = &ast.BinaryExpr{Num: p.num(), Op: op, L: l, R: p.term()}
		default:
			return l
		}
	}
}

// term = factor {("*"|DIV|MOD|AND) factor}
func (p *parser) term() ast.Expr {
	defer p.restore(p.depth)
	l := p.factor()
	for {
		switch p.kind() {
		case token.STAR, token.DIV, token.MOD, token.AND:
			op := p.next().Kind
			p.nest()
			l = &ast.BinaryExpr{Num: p.num(), Op: op, L: l, R: p.factor()}
		default:
			return l
		}
	}
}

func (p *parser) factor() ast.Expr {
	pos := p.cur().Pos
	switch p.kind() {
	case token.INT:
		t := p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q", t.Lit)
		}
		return &ast.IntLit{Num: p.num(), Value: v, LitPos: t.Pos}
	case token.CHARLIT:
		t := p.next()
		var c byte
		if len(t.Lit) > 0 {
			c = t.Lit[0]
		}
		return &ast.CharLit{Num: p.num(), Value: c, LitPos: t.Pos}
	case token.STRING:
		t := p.next()
		return &ast.TextLit{Num: p.num(), Value: t.Lit, LitPos: t.Pos}
	case token.TRUE:
		p.next()
		return &ast.BoolLit{Num: p.num(), Value: true, LitPos: pos}
	case token.FALSE:
		p.next()
		return &ast.BoolLit{Num: p.num(), Value: false, LitPos: pos}
	case token.NIL:
		p.next()
		return &ast.NilLit{Num: p.num(), LitPos: pos}
	case token.NOT:
		p.next()
		defer p.restore(p.nest())
		return &ast.UnaryExpr{Num: p.num(), Op: token.NOT, X: p.factor(), OpPos: pos}
	case token.LPAREN:
		p.next()
		e := p.expr()
		p.expect(token.RPAREN)
		return e
	case token.NEW:
		p.next()
		p.expect(token.LPAREN)
		name, _ := p.ident()
		var ln ast.Expr
		if p.accept(token.COMMA) {
			ln = p.expr()
		}
		p.expect(token.RPAREN)
		return &ast.NewExpr{Num: p.num(), TypeName: name, Len: ln, NewPos: pos}
	case token.IDENT:
		return p.designatorOrCall()
	default:
		p.errorf(pos, "expected expression, found %s", p.cur())
		p.next()
		return &ast.IntLit{Num: p.num(), Value: 0, LitPos: pos}
	}
}

// designatorOrCall = Ident { "." Ident | "[" Expr "]" | "^" | "(" args ")" }
func (p *parser) designatorOrCall() ast.Expr {
	defer p.restore(p.depth)
	name, npos := p.ident()
	var e ast.Expr = &ast.Ident{Num: p.num(), Name: name, NamePos: npos}
	for {
		switch p.kind() {
		case token.DOT:
			p.next()
			p.nest()
			f, _ := p.ident()
			e = &ast.QualifyExpr{Num: p.num(), X: e, Field: f}
		case token.LBRACK:
			p.next()
			p.nest()
			idx := p.expr()
			p.expect(token.RBRACK)
			e = &ast.SubscriptExpr{Num: p.num(), X: e, Index: idx}
		case token.CARET:
			p.next()
			p.nest()
			e = &ast.DerefExpr{Num: p.num(), X: e}
		case token.LPAREN:
			p.next()
			p.nest()
			var args []ast.Expr
			if p.kind() != token.RPAREN {
				args = append(args, p.expr())
				for p.accept(token.COMMA) {
					args = append(args, p.expr())
				}
			}
			p.expect(token.RPAREN)
			e = &ast.CallExpr{Num: p.num(), Fun: e, Args: args}
		default:
			return e
		}
	}
}
