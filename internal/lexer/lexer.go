// Package lexer implements the MiniM3 scanner.
//
// MiniM3 uses Modula-3 lexical conventions: case-sensitive upper-case
// keywords, (* ... *) comments that nest, character literals in single
// quotes and text literals in double quotes.
package lexer

import (
	"fmt"
	"strings"

	"tbaa/internal/token"
)

// Error is a lexical error at a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans an input buffer into tokens.
type Lexer struct {
	src  string
	file string
	off  int
	line int32
	col  int32
	errs []*Error
}

// New returns a lexer over src; file is used in positions.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) errorf(p token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: p, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isLetter(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipSpace consumes whitespace and comments. Comments nest, as in Modula-3.
func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '(' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			depth := 1
			for depth > 0 {
				if l.off >= len(l.src) {
					l.errorf(start, "unterminated comment")
					return
				}
				if l.peek() == '(' && l.peek2() == '*' {
					l.advance()
					l.advance()
					depth++
				} else if l.peek() == '*' && l.peek2() == ')' {
					l.advance()
					l.advance()
					depth--
				} else {
					l.advance()
				}
			}
		default:
			return
		}
	}
}

// Next scans and returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipSpace()
	p := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: p}
	}
	c := l.peek()
	switch {
	case isLetter(c):
		start := l.off
		for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		lit := l.src[start:l.off]
		kind := token.Lookup(lit)
		if kind == token.IDENT {
			return token.Token{Kind: token.IDENT, Lit: lit, Pos: p}
		}
		return token.Token{Kind: kind, Lit: lit, Pos: p}
	case isDigit(c):
		start := l.off
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		return token.Token{Kind: token.INT, Lit: l.src[start:l.off], Pos: p}
	case c == '\'':
		return l.charLit(p)
	case c == '"':
		return l.stringLit(p)
	}
	l.advance()
	mk := func(k token.Kind) token.Token { return token.Token{Kind: k, Pos: p} }
	switch c {
	case '+':
		return mk(token.PLUS)
	case '-':
		return mk(token.MINUS)
	case '*':
		return mk(token.STAR)
	case '&':
		return mk(token.AMP)
	case '=':
		return mk(token.EQ)
	case '#':
		return mk(token.NEQ)
	case '^':
		return mk(token.CARET)
	case ',':
		return mk(token.COMMA)
	case ';':
		return mk(token.SEMICOLON)
	case '(':
		return mk(token.LPAREN)
	case ')':
		return mk(token.RPAREN)
	case '[':
		return mk(token.LBRACK)
	case ']':
		return mk(token.RBRACK)
	case '{':
		return mk(token.LBRACE)
	case '}':
		return mk(token.RBRACE)
	case '<':
		if l.peek() == '=' {
			l.advance()
			return mk(token.LE)
		}
		return mk(token.LT)
	case '>':
		if l.peek() == '=' {
			l.advance()
			return mk(token.GE)
		}
		return mk(token.GT)
	case ':':
		if l.peek() == '=' {
			l.advance()
			return mk(token.ASSIGN)
		}
		return mk(token.COLON)
	case '.':
		if l.peek() == '.' {
			l.advance()
			return mk(token.DOTDOT)
		}
		return mk(token.DOT)
	}
	l.errorf(p, "illegal character %q", string(c))
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: p}
}

func (l *Lexer) charLit(p token.Pos) token.Token {
	l.advance() // opening quote
	var b strings.Builder
	if l.off >= len(l.src) {
		l.errorf(p, "unterminated character literal")
		return token.Token{Kind: token.ILLEGAL, Pos: p}
	}
	c := l.advance()
	if c == '\\' {
		if l.off >= len(l.src) {
			l.errorf(p, "unterminated character literal")
			return token.Token{Kind: token.ILLEGAL, Pos: p}
		}
		b.WriteByte(unescape(l.advance()))
	} else {
		b.WriteByte(c)
	}
	if l.off >= len(l.src) || l.peek() != '\'' {
		l.errorf(p, "unterminated character literal")
		return token.Token{Kind: token.ILLEGAL, Pos: p, Lit: b.String()}
	}
	l.advance() // closing quote
	return token.Token{Kind: token.CHARLIT, Lit: b.String(), Pos: p}
}

func (l *Lexer) stringLit(p token.Pos) token.Token {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.off >= len(l.src) || l.peek() == '\n' {
			l.errorf(p, "unterminated text literal")
			return token.Token{Kind: token.ILLEGAL, Pos: p, Lit: b.String()}
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\\' && l.off < len(l.src) {
			b.WriteByte(unescape(l.advance()))
			continue
		}
		b.WriteByte(c)
	}
	return token.Token{Kind: token.STRING, Lit: b.String(), Pos: p}
}

func unescape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	default:
		return c
	}
}
