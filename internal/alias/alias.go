// Package alias implements the paper's three type-based alias analyses:
//
//   - TypeDecl: two access paths may alias iff the subtype sets of their
//     declared types intersect (Section 2.2).
//   - FieldTypeDecl: the seven-case refinement using field names and the
//     AddressTaken predicate (Table 2, Section 2.3).
//   - SMFieldTypeRefs: FieldTypeDecl with TypeDecl replaced by SMTypeRefs,
//     the flow-insensitive selective type merging over the program's
//     pointer assignments (Figure 2, Section 2.4).
//
// Section 4's open-world variants (incomplete programs) widen
// AddressTaken and the merge relation, and are selected by Options.
package alias

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tbaa/internal/ir"
	"tbaa/internal/types"
)

// Level selects one of the paper's analyses.
type Level int

// Analysis levels, in increasing precision.
const (
	// LevelTypeDecl uses type compatibility only.
	LevelTypeDecl Level = iota
	// LevelFieldTypeDecl adds field names and AddressTaken (Table 2).
	LevelFieldTypeDecl
	// LevelSMFieldTypeRefs adds flow-insensitive selective type merging.
	LevelSMFieldTypeRefs
	// LevelFSTypeRefs refines SMFieldTypeRefs with an intraprocedural
	// flow-sensitive reaching-facts analysis: per-statement kill/gen of
	// access-path facts narrows what each pointer variable may reference
	// at that statement, so site-aware queries (MayAliasAt) can prove
	// no-alias where the flow-insensitive verdict is may-alias. The
	// context-free MayAlias is identical to SMFieldTypeRefs.
	LevelFSTypeRefs
	// LevelIPTypeRefs extends FSTypeRefs interprocedurally: the
	// flow-sensitive call-kill rule consults per-procedure transitive
	// mod-ref summaries over an RTA call graph (wired in through
	// SetCallSummaries), so a call kills only the facts its possible
	// callees may actually modify instead of all of them. Context-free
	// MayAlias remains identical to SMFieldTypeRefs.
	LevelIPTypeRefs
)

func (l Level) String() string {
	switch l {
	case LevelTypeDecl:
		return "TypeDecl"
	case LevelFieldTypeDecl:
		return "FieldTypeDecl"
	case LevelSMFieldTypeRefs:
		return "SMFieldTypeRefs"
	case LevelFSTypeRefs:
		return "FSTypeRefs"
	case LevelIPTypeRefs:
		return "IPTypeRefs"
	}
	return "?"
}

// Options configures an analysis run.
type Options struct {
	Level Level
	// OpenWorld applies Section 4's conservative extensions for
	// incomplete programs: AddressTaken also holds for any path whose
	// type equals some pass-by-reference formal's type, and all
	// subtype-related non-branded object types are merged.
	OpenWorld bool
	// PerTypeGroups selects the paper's footnote-2 variant of SMTypeRefs
	// that maintains a separate group per type (directed propagation)
	// instead of union-find equivalence classes. More precise, slower.
	PerTypeGroups bool
}

// Validate reports whether the options describe a buildable analysis:
// the level must be in range (an out-of-range Level would otherwise
// silently degrade to FieldTypeDecl behavior in MayAlias).
func (o Options) Validate() error {
	if o.Level < LevelTypeDecl || o.Level > LevelIPTypeRefs {
		return fmt.Errorf("alias: level %d out of range (valid: %d=TypeDecl, %d=FieldTypeDecl, %d=SMFieldTypeRefs, %d=FSTypeRefs, %d=IPTypeRefs)",
			int(o.Level), int(LevelTypeDecl), int(LevelFieldTypeDecl), int(LevelSMFieldTypeRefs), int(LevelFSTypeRefs), int(LevelIPTypeRefs))
	}
	return nil
}

// Oracle answers may-alias queries over symbolic access paths. All the
// clients (RLE, mod-ref) depend only on this interface.
type Oracle interface {
	// MayAlias reports whether the two access paths may denote the same
	// memory location.
	MayAlias(p, q *ir.AP) bool
	// Name identifies the oracle in reports.
	Name() string
}

// Analysis is a built TBAA instance for one program. Once constructed
// it is safe for concurrent queries: the partition oracle and the
// AddressTaken tables are immutable, and the flow-sensitive layer
// builds per-procedure facts behind its own synchronization.
// Construction itself (New) interns access paths into the program and
// must not run concurrently with another New over the same Program.
type Analysis struct {
	prog *ir.Program
	u    *types.Universe
	opts Options
	// typeRefs is indexed by type ID and holds the set of type IDs an AP
	// of that declared type may reference (the TypeRefsTable). Nil rows
	// mark non-reference types; the whole slice is nil for LevelTypeDecl
	// and LevelFieldTypeDecl, which use raw subtype sets.
	typeRefs []types.Bitset
	// addrFields / addrElems are the AddressTaken facts.
	addrFields map[ir.FieldKey]bool
	addrElems  map[int]bool
	// addrOwners indexes addrFields by field name: the owner types whose
	// field of that name has its address taken. AddressTaken consults it
	// instead of scanning every recorded fact per query.
	addrOwners map[string][]types.Type
	// apIdx holds the program's interned access paths and canonical
	// prefix chains (built in New; see ir.InternAPs).
	apIdx *ir.APIndex
	// part is the partition oracle: alias classes over the interned
	// paths plus a class × class compatibility bitmatrix, making
	// context-free MayAlias two ID loads and a bitset test. Built on
	// first use (partOnce) and immutable afterwards; noPart disables it
	// for the differential tests that pin it to the case analysis.
	part     atomic.Pointer[partition]
	partOnce sync.Once
	noPart   bool
	// flow is the per-procedure flow-sensitive refinement layer, present
	// at LevelFSTypeRefs and above. Procedure facts are built lazily on
	// the first site-aware query and dropped by InvalidateFlow.
	flow *flow
	// summaries supplies interprocedural call effects to the flow
	// layer's call-kill rule (LevelIPTypeRefs; see SetCallSummaries).
	// While nil, calls kill every flow fact — the FSTypeRefs rule.
	summaries CallSummaries
	// fp witnesses the global fact tables this build consumed; Update
	// compares it against the program's current tables to decide whether
	// the context-free structures are reusable (see incremental.go).
	fp fingerprint
}

// New builds a TBAA analysis over a lowered program. It panics if opts
// is invalid (see Options.Validate); callers constructing options from
// untrusted input should call Validate first and surface the error.
//
// New interns the program's access paths (ir.InternAPs) as part of
// construction: two New calls over one Program must not run
// concurrently, but rebuilding over an unchanged program writes
// nothing, so a rebuild may overlap queries against an earlier
// Analysis of the same program.
func New(prog *ir.Program, opts Options) *Analysis {
	return newAnalysis(prog, opts, true)
}

func newAnalysis(prog *ir.Program, opts Options, usePartition bool) *Analysis {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	var typeRefs []types.Bitset
	if opts.Level >= LevelSMFieldTypeRefs {
		if opts.PerTypeGroups {
			typeRefs = buildTypeRefsPerType(prog, opts.OpenWorld)
		} else {
			typeRefs = buildTypeRefsUnionFind(prog, opts.OpenWorld)
		}
	}
	a := newBase(prog, opts, typeRefs)
	a.noPart = !usePartition
	if usePartition {
		a.apIdx = ir.InternAPs(prog)
	}
	return a
}

// newBase returns an Analysis over prog holding what every construction
// path derives the same way: the AddressTaken indexes, the flow layer
// (LevelFSTypeRefs and above), and the fingerprint of the global facts.
// The caller supplies the TypeRefsTable and the intern index.
func newBase(prog *ir.Program, opts Options, typeRefs []types.Bitset) *Analysis {
	a := &Analysis{
		prog:       prog,
		u:          prog.Universe,
		opts:       opts,
		typeRefs:   typeRefs,
		addrFields: prog.AddressTakenFields,
		addrElems:  prog.AddressTakenElems,
		addrOwners: make(map[string][]types.Type, len(prog.AddressTakenFields)),
		fp:         fingerprintOf(prog),
	}
	for key := range prog.AddressTakenFields {
		a.addrOwners[key.Field] = append(a.addrOwners[key.Field], prog.Universe.ByID(key.TypeID))
	}
	if opts.Level >= LevelFSTypeRefs {
		a.flow = newFlow(a)
	}
	return a
}

// Name implements Oracle.
func (a *Analysis) Name() string {
	n := a.opts.Level.String()
	if a.opts.OpenWorld {
		n += "(open)"
	}
	return n
}

// MayAlias implements Oracle. Interned paths (everything occurring in
// the program, plus the canonical prefixes the kill rules walk) answer
// through the partition oracle — two ID loads and a bitset test. A path
// the partition has never seen (one built by hand, or materialized by a
// mutation the Analysis was not rebuilt for) gets the uncached case
// analysis.
func (a *Analysis) MayAlias(p, q *ir.AP) bool {
	if !a.noPart {
		part := a.partition()
		if ci := part.classOf(p); ci >= 0 {
			if cj := part.classOf(q); cj >= 0 {
				return part.compat[ci].Has(int(cj))
			}
		}
	}
	return a.mayAliasCase(p, q)
}

// mayAliasCase is the case-analysis verdict (the pre-partition
// MayAlias): the level's base relation for bare paths, Table 2
// otherwise. The partition builder calls it on class representatives;
// queries only reach it for paths the partition does not classify.
func (a *Analysis) mayAliasCase(p, q *ir.AP) bool {
	if a.opts.Level == LevelTypeDecl {
		return a.typeCompat(p.Type(), q.Type())
	}
	return a.fieldTypeDecl(p, q)
}

// typeCompat is the level-appropriate base relation: TypeDecl's subtype
// intersection, or SMTypeRefs' TypeRefsTable intersection.
func (a *Analysis) typeCompat(t1, t2 types.Type) bool {
	if t1 == nil || t2 == nil {
		return true // unknown: be conservative
	}
	if a.typeRefs != nil {
		var s1, s2 types.Bitset
		if id := t1.ID(); id < len(a.typeRefs) {
			s1 = a.typeRefs[id]
		}
		if id := t2.ID(); id < len(a.typeRefs) {
			s2 = a.typeRefs[id]
		}
		if s1 != nil && s2 != nil {
			// Word-0 fast path: most universes have < 64 types. Rows are
			// built with NewBitset(NumTypes), so they are never 0 words.
			if s1[0]&s2[0] != 0 {
				return true
			}
			return s1.Intersects(s2)
		}
		// Non-reference types fall through to subtype compatibility.
	}
	return a.u.SubtypesIntersect(t1, t2)
}

// AddressTaken reports whether the program may take the address of the
// location the path denotes (a qualified field or an array element).
// Open-world mode adds the paper's Section 4 clause: any path whose type
// equals a pass-by-reference formal's type may have been aliased by
// unavailable code.
func (a *Analysis) AddressTaken(p *ir.AP) bool {
	last := p.Last()
	if last == nil {
		return a.prog.AddressTakenVars[p.Root]
	}
	if a.opts.OpenWorld && a.prog.ByRefFormalTypes[p.Type().ID()] {
		return true
	}
	switch last.Kind {
	case ir.SelField:
		// The recorded key is the static type of the prefix (field owner).
		// Any owner type compatible with this path's prefix matches.
		pt := prefixOwnerType(p)
		for _, owner := range a.addrOwners[last.Field] {
			if a.typeCompat(owner, pt) {
				return true
			}
		}
		return false
	case ir.SelIndex:
		at := subscriptArrayType(p)
		if at == nil {
			return false
		}
		return a.addrElems[at.ID()]
	default:
		return false
	}
}

// prefixType returns the static type of p with its final selector
// removed, without materializing the prefix path.
func prefixType(p *ir.AP) types.Type {
	if n := len(p.Sels); n >= 2 {
		return p.Sels[n-2].Type
	}
	return p.Root.Type
}

// prefixOwnerType returns the object/record type owning the final field
// selector of p.
func prefixOwnerType(p *ir.AP) types.Type {
	t := prefixType(p)
	if rt, ok := t.(*types.Ref); ok {
		return rt.Elem
	}
	return t
}

// subscriptPrefixType returns the static type of the paper's "p" in
// p[i], stripping the trailing [i] and the implicit {elems} step.
func subscriptPrefixType(p *ir.AP) types.Type {
	n := len(p.Sels)
	if n >= 2 && p.Sels[n-2].Kind == ir.SelDopeElems {
		if n >= 3 {
			return p.Sels[n-3].Type
		}
		return p.Root.Type
	}
	return prefixType(p)
}

// subscriptArrayType returns the array type subscripted by a path ending
// in [i] (its prefix ends with the implicit {elems} selector).
func subscriptArrayType(p *ir.AP) *types.Array {
	n := len(p.Sels)
	// Dope-expanded paths carry an explicit {elems} step before [i].
	if n >= 2 && p.Sels[n-2].Kind == ir.SelDopeElems {
		var t types.Type
		if n >= 3 {
			t = p.Sels[n-3].Type
		} else {
			t = p.Root.Type
		}
		if at, ok := t.(*types.Array); ok {
			return at
		}
	}
	// Source-level paths subscript the array-typed prefix directly.
	if n >= 1 {
		if at, ok := prefixType(p).(*types.Array); ok {
			return at
		}
	}
	return nil
}

// fieldTypeDecl implements Table 2 of the paper. The base relation
// (TypeDecl or SMTypeRefs) is a.typeCompat.
func (a *Analysis) fieldTypeDecl(p, q *ir.AP) bool {
	// Case 1 (identical access paths always alias) needs no explicit
	// test: syntactically equal paths share selector kinds, so they land
	// in a symmetric arm below, where the type test is reflexively true
	// (every type range contains itself). The property suite checks
	// reflexivity on every generated program.
	lp, lq := p.Last(), q.Last()
	// Case 7 for bare variables (paths with no selector): in the Table 2
	// recursion a bare variable stands for "the objects this variable may
	// reference", so the test is plain type compatibility. (Distinct
	// variable *slots* never alias; clients handle variable kills
	// separately — the oracle answers the points-to question.)
	if lp == nil || lq == nil {
		return a.typeCompat(p.Type(), q.Type())
	}
	r1, r2 := rank(lp.Kind), rank(lq.Kind)
	// Normalize order so we only handle one triangle of the case matrix.
	if r1 > r2 {
		p, q = q, p
		lp, lq = lq, lp
		r1, r2 = r2, r1
	}
	switch r1*3 + r2 {
	// Case 2: p.f vs q.g — includes the implicit dope "fields", whose
	// names ({len}, {elems}) never collide with source fields.
	//
	// Table 2 of the paper recurses with FieldTypeDecl on the prefixes
	// here, which answers whether they are the same *location*. What
	// case 2 actually needs is whether their *values* can be the same
	// pointer — two distinct fields can hold the same object, making
	// x.f.i and y.g.i the same location even though x.f and y.g are
	// not. Recursion on field names is therefore unsound for paths of
	// depth ≥ 2 (our dynamic soundness property test found the
	// counterexample); the sound test is type-range intersection on the
	// prefix value types, which keeps all of the paper's one-level
	// precision (sibling-subtype and selective-merge pruning).
	case 0: // field-like vs field-like
		if fieldName(lp) != fieldName(lq) {
			return false
		}
		return a.typeCompat(prefixType(p), prefixType(q))
	// Case 3: p.f vs q^.
	case 1: // field-like vs deref
		return a.AddressTaken(p) && a.typeCompat(p.Type(), q.Type())
	// Case 5: p.f vs q[i] — never aliases in Modula-3.
	case 2: // field-like vs index
		return false
	// Case 7 (two dereferences): TypeDecl on the paths.
	case 4: // deref vs deref
		return a.typeCompat(p.Type(), q.Type())
	// Case 4: p^ vs q[i].
	case 5: // deref vs index
		return a.AddressTaken(q) && a.typeCompat(p.Type(), q.Type())
	// Case 6: p[i] vs q[j] — ignore the subscripts, compare the arrays.
	case 8: // index vs index
		return a.typeCompat(subscriptPrefixType(p), subscriptPrefixType(q))
	}
	// Case 7 fallback.
	return a.typeCompat(p.Type(), q.Type())
}

// rankTab orders selector kinds for the case normalization above:
// field-like < deref < index. Indexed by ir.SelKind.
var rankTab = [...]int8{
	ir.SelField:     0,
	ir.SelDeref:     1,
	ir.SelIndex:     2,
	ir.SelDopeLen:   0,
	ir.SelDopeElems: 0,
}

func rank(k ir.SelKind) int8 { return rankTab[k] }

func fieldName(s *ir.APSel) string {
	switch s.Kind {
	case ir.SelDopeLen:
		return "{len}"
	case ir.SelDopeElems:
		return "{elems}"
	default:
		return s.Field
	}
}

// ---------------------------------------------------------------------------
// Trivial oracles used as baselines and upper bounds

// AssumeAll is the trivial analysis: everything may alias. It is the
// paper's "no alias analysis" baseline.
type AssumeAll struct{}

// MayAlias implements Oracle.
func (AssumeAll) MayAlias(p, q *ir.AP) bool { return true }

// Name implements Oracle.
func (AssumeAll) Name() string { return "AssumeAll" }

// AssumeNone is the (unsound) perfect-analysis stand-in used for the
// upper-bound study: distinct syntactic paths never alias.
type AssumeNone struct{}

// MayAlias implements Oracle.
func (AssumeNone) MayAlias(p, q *ir.AP) bool { return p.Equal(q) }

// Name implements Oracle.
func (AssumeNone) Name() string { return "AssumeNone" }
