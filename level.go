package tbaa

import (
	"fmt"
	"strings"

	"tbaa/internal/alias"
)

// Level selects one of the paper's three alias analyses or the
// flow-sensitive extension, in increasing precision. The zero value is
// TypeDecl; Analyzers default to SMFieldTypeRefs unless WithLevel says
// otherwise.
type Level int

// The analysis levels (Sections 2.2-2.4 of the paper, plus the
// flow-sensitive extension).
const (
	// TypeDecl: two access paths may alias iff the subtype sets of their
	// declared types intersect.
	TypeDecl = Level(alias.LevelTypeDecl)
	// FieldTypeDecl: the seven-case refinement using field names and the
	// AddressTaken predicate (Table 2).
	FieldTypeDecl = Level(alias.LevelFieldTypeDecl)
	// SMFieldTypeRefs: FieldTypeDecl with selective type merging over
	// the program's pointer assignments (Figure 2).
	SMFieldTypeRefs = Level(alias.LevelSMFieldTypeRefs)
	// FSTypeRefs: SMFieldTypeRefs refined by an intraprocedural
	// flow-sensitive reaching-stores analysis. Per statement it narrows
	// the set of allocated types each pointer variable may reference
	// (NEW generates exact types; calls and stores through locations
	// kill), so passes and pair counts prove no-alias where the
	// flow-insensitive verdict is may-alias. Context-free MayAlias
	// queries are identical to SMFieldTypeRefs; the refinement applies
	// to statement-anchored facts (CountPairs, RLE and PRE kill
	// decisions).
	FSTypeRefs = Level(alias.LevelFSTypeRefs)
	// IPTypeRefs: FSTypeRefs extended with interprocedural mod-ref
	// summaries over a Rapid Type Analysis call graph. Method calls
	// dispatch only to implementations selectable by instantiated
	// receiver types (narrowed further by the TypeRefsTable), each
	// procedure gets a transitive summary of the access-path classes
	// and globals its callees may modify (computed bottom-up over
	// call-graph SCCs, with a sound top for recursion and open-world
	// escapes), and every call kill — in the flow-sensitive fact layer
	// and in the RLE/PRE availability dataflows — consults the call's
	// summary instead of killing everything.
	IPTypeRefs = Level(alias.LevelIPTypeRefs)
)

// Levels returns the paper's three analysis levels in ascending
// precision — the column order in Tables 5 and 6. FSTypeRefs is not
// included: the paper's artifacts stay three-column, and the
// flow-sensitive extension is evaluated by Table FS instead.
func Levels() []Level { return []Level{TypeDecl, FieldTypeDecl, SMFieldTypeRefs} }

func (l Level) String() string {
	if l.validate() != nil {
		return fmt.Sprintf("Level(%d)", int(l))
	}
	return alias.Level(l).String()
}

func (l Level) validate() error {
	return alias.Options{Level: alias.Level(l)}.Validate()
}

// ParseLevel maps a level name to a Level: "typedecl", "fieldtypedecl",
// "smfieldtyperefs", "fstyperefs", "iptyperefs" (or the shorthands
// "tbaa" for the paper's most precise level, "fs" for the
// flow-sensitive extension, and "ip" for the interprocedural
// extension). Matching is case-insensitive. This is the one
// level-selection helper shared by cmd/tbaa and cmd/tbaabench.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "typedecl":
		return TypeDecl, nil
	case "fieldtypedecl":
		return FieldTypeDecl, nil
	case "smfieldtyperefs", "tbaa":
		return SMFieldTypeRefs, nil
	case "fstyperefs", "fs":
		return FSTypeRefs, nil
	case "iptyperefs", "ip":
		return IPTypeRefs, nil
	}
	return 0, fmt.Errorf("tbaa: unknown alias level %q (want typedecl, fieldtypedecl, smfieldtyperefs, fstyperefs, or iptyperefs)", s)
}

// Set implements flag.Value via ParseLevel, so a *Level registers
// directly with flag.Var as a command-line level selector.
func (l *Level) Set(s string) error {
	v, err := ParseLevel(s)
	if err != nil {
		return err
	}
	*l = v
	return nil
}
