// Package token defines the lexical tokens of MiniM3, the Modula-3 subset
// compiled by this repository, together with source positions.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// The token kinds. Keyword kinds follow Modula-3 spelling.
const (
	ILLEGAL Kind = iota
	EOF

	// Literals and identifiers.
	IDENT   // Foo
	INT     // 123
	CHARLIT // 'a'
	STRING  // "abc"

	// Operators and delimiters.
	PLUS      // +
	MINUS     // -
	STAR      // *
	AMP       // & (text concatenation; unused by most programs)
	ASSIGN    // :=
	EQ        // =
	NEQ       // #
	LT        // <
	GT        // >
	LE        // <=
	GE        // >=
	LPAREN    // (
	RPAREN    // )
	LBRACK    // [
	RBRACK    // ]
	LBRACE    // {
	RBRACE    // }
	CARET     // ^
	DOT       // .
	COMMA     // ,
	SEMICOLON // ;
	COLON     // :
	DOTDOT    // ..

	// Keywords.
	kwStart
	AND
	ARRAY
	BEGIN
	BRANDED
	BY
	CONST
	DIV
	DO
	ELSE
	ELSIF
	END
	EXIT
	FALSE
	FOR
	IF
	LOOP
	METHODS
	MOD
	MODULE
	NEW
	NIL
	NOT
	OBJECT
	OF
	OR
	OVERRIDES
	PROCEDURE
	READONLY
	RECORD
	REF
	REPEAT
	RETURN
	THEN
	TO
	TRUE
	TYPE
	UNTIL
	VAR
	WHILE
	WITH
	kwEnd
)

var names = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF", IDENT: "IDENT", INT: "INT",
	CHARLIT: "CHARLIT", STRING: "STRING",
	PLUS: "+", MINUS: "-", STAR: "*", AMP: "&", ASSIGN: ":=",
	EQ: "=", NEQ: "#", LT: "<", GT: ">", LE: "<=", GE: ">=",
	LPAREN: "(", RPAREN: ")", LBRACK: "[", RBRACK: "]",
	LBRACE: "{", RBRACE: "}", CARET: "^", DOT: ".", COMMA: ",",
	SEMICOLON: ";", COLON: ":", DOTDOT: "..",
	AND: "AND", ARRAY: "ARRAY", BEGIN: "BEGIN", BRANDED: "BRANDED",
	BY: "BY", CONST: "CONST", DIV: "DIV", DO: "DO", ELSE: "ELSE",
	ELSIF: "ELSIF", END: "END", EXIT: "EXIT", FALSE: "FALSE", FOR: "FOR",
	IF: "IF", LOOP: "LOOP", METHODS: "METHODS", MOD: "MOD",
	MODULE: "MODULE", NEW: "NEW", NIL: "NIL", NOT: "NOT",
	OBJECT: "OBJECT", OF: "OF", OR: "OR", OVERRIDES: "OVERRIDES",
	PROCEDURE: "PROCEDURE", READONLY: "READONLY", RECORD: "RECORD",
	REF: "REF", REPEAT: "REPEAT", RETURN: "RETURN", THEN: "THEN",
	TO: "TO", TRUE: "TRUE", TYPE: "TYPE", UNTIL: "UNTIL", VAR: "VAR",
	WHILE: "WHILE", WITH: "WITH",
}

// String returns the human-readable spelling of the kind.
func (k Kind) String() string {
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsKeyword reports whether k is a reserved word.
func (k Kind) IsKeyword() bool { return k > kwStart && k < kwEnd }

var keywords = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := kwStart + 1; k < kwEnd; k++ {
		m[names[k]] = k
	}
	return m
}()

// Lookup maps an identifier spelling to its keyword kind, or IDENT.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return IDENT
}

// Pos is a source position: 1-based line and column plus the file name.
// Every AST node and IR instruction carries one, so line and column are
// 32-bit.
type Pos struct {
	File string
	Line int32
	Col  int32
}

// IsValid reports whether p refers to an actual source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a single lexical token.
type Token struct {
	Kind Kind
	Lit  string // literal text for IDENT, INT, CHARLIT, STRING
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, CHARLIT, STRING:
		return fmt.Sprintf("%s(%s)", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}
