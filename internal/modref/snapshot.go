package modref

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"tbaa/internal/ir"
	"tbaa/internal/types"
)

// This file implements the serializable form of a ModRef — the per-SCC
// transitive summaries, the shape table, the RTA instantiated set, and
// the freshness facts — for the persistent artifact cache. Like the
// alias snapshot, everything is named by stable identities (intern IDs
// for paths, Procs/Globals positions for procedures and variables), so
// a snapshot survives a process boundary and resolves against a decoded
// program.
//
// FromSnapshot deliberately leaves the construction-only state (direct
// effects, SCC decomposition, per-store freshness marks, RTA input
// records) empty: Update refuses to run without them and the caller
// falls back to ComputeWith, so the first edit after a warm start pays
// a full mod-ref rebuild — a performance cost, never a soundness one.

// EffectsSnap is the persistable form of one Effects summary. Mods and
// Refs hold sorted shape IDs; ModGlobals holds sorted Program.Globals
// positions.
type EffectsSnap struct {
	Mods, Refs        []int32
	ModGlobals        []int32
	WritesThroughLocs bool
	Top               bool
}

// Snapshot is the persistable form of one ModRef.
type Snapshot struct {
	// RTA and OpenWorld record the mode the summaries were built under;
	// FromSnapshot rejects a mismatched Config.
	RTA, OpenWorld bool
	// ShapeIIDs names each shape representative by intern identity, in
	// shape-ID order.
	ShapeIIDs []int32
	// Effects lists the distinct summary objects; ByProc maps each
	// Program.Procs position to its summary. Pointer-distinct but
	// content-equal summaries stay distinct, preserving the fresh build's
	// sharing structure exactly.
	Effects []EffectsSnap
	ByProc  []int32
	// Callees holds each procedure's call-graph successors as
	// Program.Procs positions (one entry per call edge, in instruction
	// order).
	Callees [][]int32
	// Inst is the RTA instantiated-type bitset; nil (HasInst false) when
	// no dispatch filter was active.
	HasInst bool
	Inst    []uint64
	// Reachable lists the RTA-reachable procedures (Procs positions);
	// meaningful only when HasReachable.
	HasReachable bool
	Reachable    []int32
	// ReturnsFresh lists the procedures whose every return value is
	// invocation-fresh; meaningful only when HasReturnsFresh.
	HasReturnsFresh bool
	ReturnsFresh    []int32
}

// Snapshot captures the ModRef's query-time state. It returns nil when
// some path cannot be named by intern identity (a shape representative
// was never interned) — the caller then skips persisting the mod-ref
// section.
func (mr *ModRef) Snapshot() *Snapshot {
	prog := mr.prog
	procIdx := make(map[*ir.Proc]int32, len(prog.Procs))
	for i, p := range prog.Procs {
		procIdx[p] = int32(i)
	}
	globalIdx := make(map[*ir.Var]int32, len(prog.Globals))
	for i, v := range prog.Globals {
		globalIdx[v] = int32(i)
	}
	s := &Snapshot{RTA: mr.cfg.RTA, OpenWorld: mr.cfg.OpenWorld}
	for _, rep := range mr.shapes.reps {
		iid := atomic.LoadInt32(&rep.IID)
		if iid == 0 {
			return nil
		}
		s.ShapeIIDs = append(s.ShapeIIDs, iid)
	}
	effIdx := make(map[*Effects]int32)
	for _, p := range prog.Procs {
		eff := mr.byProc[p]
		if eff == nil {
			return nil
		}
		ei, ok := effIdx[eff]
		if !ok {
			es, err := snapEffects(eff, globalIdx)
			if err != nil {
				return nil
			}
			ei = int32(len(s.Effects))
			effIdx[eff] = ei
			s.Effects = append(s.Effects, es)
		}
		s.ByProc = append(s.ByProc, ei)
	}
	s.Callees = make([][]int32, len(prog.Procs))
	for i, p := range prog.Procs {
		for _, c := range mr.callees[p] {
			ci, ok := procIdx[c]
			if !ok {
				return nil
			}
			s.Callees[i] = append(s.Callees[i], ci)
		}
	}
	if mr.inst != nil {
		s.HasInst, s.Inst = true, mr.inst
	}
	if mr.reachable != nil {
		s.HasReachable = true
		for i, p := range prog.Procs {
			if mr.reachable[p] {
				s.Reachable = append(s.Reachable, int32(i))
			}
		}
	}
	if mr.returnsFresh != nil {
		s.HasReturnsFresh = true
		for i, p := range prog.Procs {
			if mr.returnsFresh[p] {
				s.ReturnsFresh = append(s.ReturnsFresh, int32(i))
			}
		}
	}
	return s
}

// snapEffects converts one summary to its persistable form. Shape IDs
// come out of the construction bitsets in ascending order — the same
// order materialize emits, so the decoded Mods/Refs slices match the
// fresh build's byte for byte.
func snapEffects(eff *Effects, globalIdx map[*ir.Var]int32) (EffectsSnap, error) {
	es := EffectsSnap{
		Mods:              bitvecIDs(eff.mods),
		Refs:              bitvecIDs(eff.refs),
		WritesThroughLocs: eff.WritesThroughLocs,
		Top:               eff.Top,
	}
	for g := range eff.ModGlobals {
		gi, ok := globalIdx[g]
		if !ok {
			return EffectsSnap{}, fmt.Errorf("modref: summary rebinds non-global %s", g.Name)
		}
		es.ModGlobals = append(es.ModGlobals, gi)
	}
	sort.Slice(es.ModGlobals, func(i, j int) bool { return es.ModGlobals[i] < es.ModGlobals[j] })
	return es, nil
}

func bitvecIDs(b bitvec) []int32 {
	var out []int32
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6)+int32(bits.TrailingZeros64(word)))
		}
	}
	return out
}

// FromSnapshot builds a ModRef over prog from a decoded snapshot. idx
// must be the intern index of prog; shape representatives resolve
// against it, and the shape table is rebuilt so that every serialized
// shape ID maps to the identical representative the fresh build used.
// cfg must request the mode the snapshot was built under (Refine may be
// a fresh closure over the decoded oracle). The construction-only state
// stays empty, so a later Update bails to ComputeWith — exact, just not
// incremental.
func FromSnapshot(prog *ir.Program, cfg Config, idx *ir.APIndex, snap *Snapshot) (*ModRef, error) {
	if snap == nil || idx == nil {
		return nil, fmt.Errorf("modref: nil snapshot or index")
	}
	if cfg.RTA != snap.RTA || cfg.OpenWorld != snap.OpenWorld {
		return nil, fmt.Errorf("modref: snapshot mode (rta=%v open=%v) does not match config (rta=%v open=%v)",
			snap.RTA, snap.OpenWorld, cfg.RTA, cfg.OpenWorld)
	}
	mr := &ModRef{
		prog:    prog,
		cfg:     cfg,
		byProc:  make(map[*ir.Proc]*Effects, len(prog.Procs)),
		callees: make(map[*ir.Proc][]*ir.Proc, len(prog.Procs)),
		effMemo: make(map[dispatchKey]*Effects),
		shapes:  newShapeTab(),
		fp:      modrefFPOf(prog),
	}
	for i, iid := range snap.ShapeIIDs {
		ap := idx.ByID(iid)
		if ap == nil {
			return nil, fmt.Errorf("modref: shape %d names unknown identity %d", i, iid)
		}
		if id := mr.shapes.id(ap); id != int32(i) {
			return nil, fmt.Errorf("modref: shape %d re-interned as %d (table drift)", i, id)
		}
	}
	nShapes := int32(len(mr.shapes.reps))
	nProcs := len(prog.Procs)
	if len(snap.ByProc) != nProcs || len(snap.Callees) != nProcs {
		return nil, fmt.Errorf("modref: snapshot covers %d/%d procedures, program has %d",
			len(snap.ByProc), len(snap.Callees), nProcs)
	}
	effects := make([]*Effects, len(snap.Effects))
	for i := range snap.Effects {
		es := &snap.Effects[i]
		eff := &Effects{
			ModGlobals:        make(map[*ir.Var]bool, len(es.ModGlobals)),
			WritesThroughLocs: es.WritesThroughLocs,
			Top:               es.Top,
		}
		for _, id := range es.Mods {
			if id < 0 || id >= nShapes {
				return nil, fmt.Errorf("modref: summary %d mods shape %d out of range", i, id)
			}
			eff.mods.add(id)
		}
		for _, id := range es.Refs {
			if id < 0 || id >= nShapes {
				return nil, fmt.Errorf("modref: summary %d refs shape %d out of range", i, id)
			}
			eff.refs.add(id)
		}
		for _, gi := range es.ModGlobals {
			if gi < 0 || int(gi) >= len(prog.Globals) {
				return nil, fmt.Errorf("modref: summary %d rebinds global %d out of range", i, gi)
			}
			eff.ModGlobals[prog.Globals[gi]] = true
		}
		eff.materialize(mr.shapes)
		effects[i] = eff
	}
	for pi, p := range prog.Procs {
		ei := snap.ByProc[pi]
		if ei < 0 || int(ei) >= len(effects) {
			return nil, fmt.Errorf("modref: procedure %s summarized by out-of-range summary %d", p.Name, ei)
		}
		mr.byProc[p] = effects[ei]
		var cs []*ir.Proc
		for _, ci := range snap.Callees[pi] {
			if ci < 0 || int(ci) >= nProcs {
				return nil, fmt.Errorf("modref: procedure %s calls out-of-range procedure %d", p.Name, ci)
			}
			cs = append(cs, prog.Procs[ci])
		}
		mr.callees[p] = cs
	}
	if snap.HasInst {
		mr.inst = types.Bitset(snap.Inst)
	}
	if snap.HasReachable {
		mr.reachable = make(map[*ir.Proc]bool, len(snap.Reachable))
		for _, pi := range snap.Reachable {
			if pi < 0 || int(pi) >= nProcs {
				return nil, fmt.Errorf("modref: reachable procedure %d out of range", pi)
			}
			mr.reachable[prog.Procs[pi]] = true
		}
	}
	if snap.HasReturnsFresh {
		mr.returnsFresh = make(map[*ir.Proc]bool, len(snap.ReturnsFresh))
		for _, pi := range snap.ReturnsFresh {
			if pi < 0 || int(pi) >= nProcs {
				return nil, fmt.Errorf("modref: fresh-returning procedure %d out of range", pi)
			}
			mr.returnsFresh[prog.Procs[pi]] = true
		}
	}
	return mr, nil
}
