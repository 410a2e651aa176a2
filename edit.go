package tbaa

import (
	"fmt"
	"slices"

	"tbaa/internal/ast"
	"tbaa/internal/cow"
	"tbaa/internal/ir"
	"tbaa/internal/lower"
	"tbaa/internal/parser"
	"tbaa/internal/sema"
)

// ProcEdit is a checked single-procedure replacement produced by
// Module.EditProc. One ProcEdit can be applied to any number of
// Analyzers of the same module (each maintains a private lowering), and
// edits must be applied in the order they were made.
type ProcEdit struct {
	mod  *Module
	proc *sema.Procedure
}

// Proc returns the name of the procedure the edit replaces.
func (e *ProcEdit) Proc() string { return e.proc.Name }

// EditProc type-checks src — a single PROCEDURE declaration — as a
// replacement for the module procedure of the same name and installs it
// in the module's checked form. Analyzers built after EditProc returns
// lower the edited body; Analyzers already built keep answering from
// their current program until the edit is applied to them with
// Analyzer.ApplyEdit.
//
// The edit is checked against the frozen module: every type written in
// the declaration must be a declared type name, and the signature must
// match the replaced procedure exactly, so every call site, method
// binding, and precomputed type-universe cache stays valid without
// re-checking the rest of the module. Violations, like ordinary type
// errors in the body, are reported as a *CheckError; syntax errors as a
// *ParseError.
func (m *Module) EditProc(src string) (*ProcEdit, error) {
	decl, err := parseProcDecl(m.c.File, src)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	proc, err := m.c.Sema.ReplaceProc(decl)
	if err != nil {
		if el, ok := err.(sema.ErrorList); ok {
			return nil, newCheckError(m.c.File, el)
		}
		return nil, err
	}
	// The module no longer matches the source its hash names; persisted
	// artifacts keyed by that hash must not serve or record it.
	m.edited.Store(true)
	return &ProcEdit{mod: m, proc: proc}, nil
}

// ApplyEdit re-lowers the edited procedure into this Analyzer's private
// program and incrementally rebuilds the analyses: only the edited
// procedure's access paths are re-interned and re-partitioned, only its
// flow facts are dropped, and only its SCC and the SCCs that reach it
// are re-summarized (with a full rebuild as the automatic fallback when
// the edit changed a program-wide fact table). The mod-ref layer also
// keeps the previous RTA call graph when the edited procedure was
// unreachable or its allocations, direct calls, and method sites are
// unchanged.
//
// The access-path name index is updated by delta, not rebuilt: only
// names the procedure carried before the edit or carries after it can
// change, and each still resolves to its first occurrence in
// Procs → Blocks → Instrs order, exactly as a full build would. The
// first ApplyEdit on an Analyzer pays one walk of the program to
// record which procedures carry which names; later edits cost the
// edited procedure. The refreshed snapshot is published atomically
// exactly as Invalidate does: queries in flight finish on the snapshot
// they started with, and queries that begin after ApplyEdit returns
// see only the edited program.
//
// Configured optimization passes are not re-run: the replacement body
// is analyzed as lowered. Analyzers built without passes — the serving
// configuration — answer exactly as a from-scratch Analyzer of the
// edited module would.
func (a *Analyzer) ApplyEdit(e *ProcEdit) error {
	if e.mod != a.mod {
		return fmt.Errorf("tbaa: edit of module %s applied to an analyzer of %s",
			e.mod.File(), a.mod.File())
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.prog.ProcByName[e.proc.Name] == nil {
		return fmt.Errorf("tbaa: program has no procedure %s", e.proc.Name)
	}
	old := a.snap.Load()
	if old != nil && a.book == nil {
		a.book = newPathBook(a.prog) // before the old body is gone
	}
	a.mod.mu.RLock()
	p := lower.LowerProcInto(a.prog, a.mod.c.Sema, e.proc)
	a.mod.mu.RUnlock()
	a.env.Invalidate()
	if old != nil {
		oracle := a.env.Oracle()
		paths := a.book.edit(a.prog, old.paths, slices.Index(a.prog.Procs, p))
		a.snap.Store(&querySnap{oracle: oracle, paths: paths})
	}
	return nil
}

// pathBook is the writer-side bookkeeping that lets ApplyEdit update
// the access-path index by delta: each procedure's distinct path names,
// and for each name the ascending Procs positions of the procedures
// carrying it. A name resolves to its first carrier's first occurrence,
// so when an edit drops a name from the procedure that owned it, the
// next carrier takes it over. It is built on the first ApplyEdit, so
// cold and warm builds never pay for it, and guarded by Analyzer.mu.
type pathBook struct {
	names   [][]string         // per Procs position, first-occurrence order
	holders map[string][]int32 // name → ascending Procs positions
}

func newPathBook(prog *ir.Program) *pathBook {
	b := &pathBook{names: make([][]string, len(prog.Procs)), holders: make(map[string][]int32)}
	for i, p := range prog.Procs {
		b.names[i], _ = firstPaths(p)
		for _, name := range b.names[i] {
			b.holders[name] = append(b.holders[name], int32(i))
		}
	}
	return b
}

// firstPaths returns p's distinct path names in first-occurrence order
// and the access path of each name's first occurrence.
func firstPaths(p *ir.Proc) ([]string, map[string]*ir.AP) {
	var names []string
	first := make(map[string]*ir.AP)
	procPaths(p, func(name string, ap *ir.AP) {
		if _, ok := first[name]; !ok {
			first[name] = ap
			names = append(names, name)
		}
	})
	return names, first
}

// edit derives the next generation of the access-path index from old
// after the procedure at Procs position i was re-lowered, and updates
// the bookkeeping to match. Names the procedure kept or gained resolve
// to its new body when it is their first carrier; names it dropped
// move to their next carrier, or leave the index with their last one.
func (b *pathBook) edit(prog *ir.Program, old *cow.Map[string, *ir.AP], i int) *cow.Map[string, *ir.AP] {
	pi := int32(i)
	names, first := firstPaths(prog.Procs[i])
	paths := old.Derive()
	moved := make(map[int32]map[string]bool) // next owner → names it takes over
	for _, name := range b.names[i] {
		if _, kept := first[name]; kept {
			continue
		}
		h := b.holders[name]
		owned := h[0] == pi
		k, _ := slices.BinarySearch(h, pi)
		h = slices.Delete(h, k, k+1)
		if len(h) == 0 {
			delete(b.holders, name)
			paths.Delete(name)
			continue
		}
		b.holders[name] = h
		if owned {
			if moved[h[0]] == nil {
				moved[h[0]] = make(map[string]bool)
			}
			moved[h[0]][name] = true
		}
	}
	for _, name := range names {
		h := b.holders[name]
		if k, found := slices.BinarySearch(h, pi); !found {
			h = slices.Insert(h, k, pi)
			b.holders[name] = h
		}
		if h[0] == pi {
			paths.Set(name, first[name])
		}
	}
	for q, want := range moved {
		procPaths(prog.Procs[q], func(name string, ap *ir.AP) {
			if want[name] {
				paths.Set(name, ap)
				delete(want, name)
			}
		})
	}
	b.names[i] = names
	return paths
}

// EditProc is the one-analyzer convenience: Module.EditProc followed by
// ApplyEdit on this Analyzer.
func (a *Analyzer) EditProc(src string) (*ProcEdit, error) {
	e, err := a.mod.EditProc(src)
	if err != nil {
		return nil, err
	}
	return e, a.ApplyEdit(e)
}

// parseProcDecl parses src, which must consist of exactly one procedure
// declaration, by checking it as the body of a synthetic wrapper
// module. The wrapper prefix shares the declaration's first line, so
// diagnostic line numbers match the edit source.
func parseProcDecl(file string, src string) (*ast.ProcDecl, error) {
	m, err := parser.Parse(file, "MODULE EditM3; "+src+" BEGIN END EditM3.")
	if err != nil {
		return nil, newParseError(file, err)
	}
	var pd *ast.ProcDecl
	for _, d := range m.Decls {
		q, ok := d.(*ast.ProcDecl)
		if !ok || pd != nil {
			return nil, fmt.Errorf("tbaa: edit source must be exactly one PROCEDURE declaration")
		}
		pd = q
	}
	if pd == nil {
		return nil, fmt.Errorf("tbaa: edit source must be exactly one PROCEDURE declaration")
	}
	return pd, nil
}
