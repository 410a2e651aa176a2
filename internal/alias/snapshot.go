package alias

import (
	"fmt"
	"sync/atomic"

	"tbaa/internal/ir"
	"tbaa/internal/types"
)

// This file implements the serializable form of an Analysis' context-free
// query structures — the TypeRefsTable and the partition oracle — for the
// persistent artifact cache (internal/artifact). A Snapshot references
// paths only by their intern identity, never by pointer, so it survives a
// process boundary: re-interning a decoded program with the same pointer
// topology reproduces the identities (ir.InternAPs numbers paths in
// deterministic program order), and NewFromSnapshot resolves them against
// the fresh index.
//
// NewFromSnapshot validates structure (lengths, identity resolution,
// class bounds), not content: a corrupted-but-well-formed snapshot would
// answer wrong verdicts, which is why the artifact layer guards the
// payload with a checksum and the intern table with a digest before any
// snapshot reaches this constructor. Structural validation here only has
// to make a malformed snapshot impossible to crash on.

// Snapshot is the persistable form of one Analysis' context-free state.
// All slices are shared with the Analysis that produced it (or, after
// decoding, with the Analysis built from it); treat a Snapshot as
// immutable.
type Snapshot struct {
	// TypeRefs is the TypeRefsTable indexed by type ID (nil rows mark
	// non-reference types); nil below LevelSMFieldTypeRefs.
	TypeRefs []types.Bitset
	// Cls maps intern IDs to alias-class IDs; Cls[0] is unused and holes
	// hold -1 (see partition.cls).
	Cls []int32
	// Compat is the symmetric class × class may-alias bitmatrix.
	Compat []types.Bitset
	// RepIIDs holds the intern identity of each class representative.
	RepIIDs []int32
}

// Snapshot captures the analysis' context-free query structures, forcing
// the partition build if it has not happened yet. It returns nil when
// this Analysis maintains no partition (the differential-test
// configuration) or a representative cannot be named by intern identity
// — the caller then simply skips persisting.
func (a *Analysis) Snapshot() *Snapshot {
	if a.noPart {
		return nil
	}
	part := a.partition()
	snap := &Snapshot{
		TypeRefs: a.typeRefs,
		Cls:      part.cls,
		Compat:   part.compat,
		RepIIDs:  make([]int32, len(part.reps)),
	}
	for i, rep := range part.reps {
		iid := atomic.LoadInt32(&rep.IID)
		if part.idx.ByID(iid) != rep {
			return nil
		}
		snap.RepIIDs[i] = iid
	}
	return snap
}

// NewFromSnapshot builds an Analysis over prog from a decoded snapshot,
// skipping the TypeRefsTable construction and the partition build — the
// warm-start path of the artifact cache. idx must be the intern index of
// prog (ir.InternAPs over the decoded program); the snapshot's class
// table and representatives are resolved against it. The construction
// shares New's base (AddressTaken indexes, flow layer, fingerprint), so
// the returned Analysis answers exactly as a from-scratch build over
// the same program would — the artifact layer's differential gate pins
// that equivalence.
func NewFromSnapshot(prog *ir.Program, opts Options, idx *ir.APIndex, snap *Snapshot) (*Analysis, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if snap == nil || idx == nil {
		return nil, fmt.Errorf("alias: nil snapshot or index")
	}
	if len(snap.Cls) != idx.Len()+1 {
		return nil, fmt.Errorf("alias: snapshot class table covers %d identities, index has %d", len(snap.Cls)-1, idx.Len())
	}
	nClasses := len(snap.RepIIDs)
	if len(snap.Compat) != nClasses {
		return nil, fmt.Errorf("alias: snapshot has %d compat rows for %d classes", len(snap.Compat), nClasses)
	}
	reps := make([]*ir.AP, nClasses)
	for i, iid := range snap.RepIIDs {
		ap := idx.ByID(iid)
		if ap == nil {
			return nil, fmt.Errorf("alias: snapshot representative %d names unknown identity %d", i, iid)
		}
		reps[i] = ap
	}
	for i, c := range snap.Cls[1:] {
		if c < -1 || int(c) >= nClasses {
			return nil, fmt.Errorf("alias: snapshot classifies identity %d into out-of-range class %d", i+1, c)
		}
	}
	numTypes := prog.Universe.NumTypes()
	if opts.Level >= LevelSMFieldTypeRefs {
		if len(snap.TypeRefs) != numTypes {
			return nil, fmt.Errorf("alias: snapshot TypeRefsTable has %d rows, universe has %d types", len(snap.TypeRefs), numTypes)
		}
		words := (numTypes + 63) / 64
		for id, row := range snap.TypeRefs {
			// typeCompat's word-0 fast path requires non-nil rows to have
			// the NewBitset(NumTypes) word length.
			if row != nil && len(row) != words {
				return nil, fmt.Errorf("alias: snapshot TypeRefsTable row %d has %d words, want %d", id, len(row), words)
			}
		}
	} else if len(snap.TypeRefs) != 0 {
		return nil, fmt.Errorf("alias: snapshot carries a TypeRefsTable below level %v", LevelSMFieldTypeRefs)
	}
	a := newBase(prog, opts, snap.TypeRefs)
	a.apIdx = idx
	a.part.Store(&partition{idx: idx, aps: idx.APs, cls: snap.Cls, compat: snap.Compat, reps: reps})
	return a, nil
}

// Index returns the analysis' interned access-path index (the artifact
// encoder needs it to name paths by identity).
func (a *Analysis) Index() *ir.APIndex { return a.apIdx }
