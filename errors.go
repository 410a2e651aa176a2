package tbaa

import (
	"fmt"

	"tbaa/internal/parser"
	"tbaa/internal/sema"
	"tbaa/internal/token"
)

// Diagnostic is one positioned message from the frontend.
type Diagnostic struct {
	File string
	Line int // 1-based
	Col  int // 1-based
	Msg  string
}

func (d Diagnostic) String() string {
	if d.File == "" {
		return fmt.Sprintf("%d:%d: %s", d.Line, d.Col, d.Msg)
	}
	return fmt.Sprintf("%s:%d:%d: %s", d.File, d.Line, d.Col, d.Msg)
}

// ParseError reports syntax errors in a module. File, Line, and Col
// locate the first error; Diagnostics holds every collected error in
// source order.
type ParseError struct {
	File        string
	Line, Col   int
	Diagnostics []Diagnostic
	err         error
}

func (e *ParseError) Error() string { return e.err.Error() }

// Unwrap exposes the underlying frontend error list.
func (e *ParseError) Unwrap() error { return e.err }

// CheckError reports semantic (type-checking) errors in a module.
// File, Line, and Col locate the first error; Diagnostics holds every
// collected error in source order.
type CheckError struct {
	File        string
	Line, Col   int
	Diagnostics []Diagnostic
	err         error
}

func (e *CheckError) Error() string { return e.err.Error() }

// Unwrap exposes the underlying frontend error list.
func (e *CheckError) Unwrap() error { return e.err }

// PathError reports a query naming an access path that does not occur
// in the analyzed module (see Analyzer.Paths for the valid names).
type PathError struct {
	File string
	Path string
}

func (e *PathError) Error() string {
	return fmt.Sprintf("tbaa: no access path %q in %s", e.Path, e.File)
}

func diagnostic(file string, pos token.Pos, msg string) Diagnostic {
	d := Diagnostic{File: pos.File, Line: int(pos.Line), Col: int(pos.Col), Msg: msg}
	if d.File == "" {
		d.File = file
	}
	return d
}

func newParseError(file string, err error) *ParseError {
	pe := &ParseError{File: file, err: err}
	if list, ok := err.(parser.ErrorList); ok {
		for _, e := range list {
			pe.Diagnostics = append(pe.Diagnostics, diagnostic(file, e.Pos, e.Msg))
		}
	}
	if len(pe.Diagnostics) > 0 {
		pe.Line, pe.Col = pe.Diagnostics[0].Line, pe.Diagnostics[0].Col
	}
	return pe
}

func newCheckError(file string, err error) *CheckError {
	ce := &CheckError{File: file, err: err}
	if list, ok := err.(sema.ErrorList); ok {
		for _, e := range list {
			ce.Diagnostics = append(ce.Diagnostics, diagnostic(file, e.Pos, e.Msg))
		}
	}
	if len(ce.Diagnostics) > 0 {
		ce.Line, ce.Col = ce.Diagnostics[0].Line, ce.Diagnostics[0].Col
	}
	return ce
}
