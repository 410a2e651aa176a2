package tbaa

import (
	"errors"
	"fmt"
	"io/fs"

	"tbaa/internal/alias"
	"tbaa/internal/artifact"
	"tbaa/internal/cow"
	"tbaa/internal/driver"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
)

// ArtifactStatus reports what the artifact cache did for one Analyzer
// construction (see WithArtifactCache).
type ArtifactStatus int

const (
	// ArtifactNone: no cache configured, or the configuration is not
	// cacheable (an optimization pipeline or the per-type-groups variant).
	ArtifactNone ArtifactStatus = iota
	// ArtifactHit: the Analyzer was decoded from a persisted artifact;
	// no analysis was built.
	ArtifactHit
	// ArtifactMiss: no artifact existed; the Analyzer was built from
	// scratch and the artifact written.
	ArtifactMiss
	// ArtifactInvalid: an artifact existed but failed validation
	// (truncation, checksum or digest mismatch, version or build skew,
	// wrong key); the Analyzer was built from scratch and the bad
	// artifact overwritten.
	ArtifactInvalid
)

func (s ArtifactStatus) String() string {
	switch s {
	case ArtifactNone:
		return "none"
	case ArtifactHit:
		return "hit"
	case ArtifactMiss:
		return "miss"
	case ArtifactInvalid:
		return "invalid"
	}
	return fmt.Sprintf("ArtifactStatus(%d)", int(s))
}

// ArtifactStatus reports whether this Analyzer warm-started from a
// persisted artifact, missed, or recovered from an invalid one.
func (a *Analyzer) ArtifactStatus() ArtifactStatus { return a.artifact }

// artifactKey is the cache identity of a cacheable configuration: the
// module's content hash plus the normalized level and world. Format
// version and build fingerprint ride in the artifact header.
func (m *Module) artifactKey(opts alias.Options) artifact.Key {
	norm := opts.Normalize()
	return artifact.Key{ModuleHash: m.hash, Level: int(norm.Level), Open: norm.OpenWorld}
}

// cacheable reports whether this configuration's analysis state can be
// served from the artifact cache. An optimization pipeline mutates the
// program after lowering (the artifact records the fresh lowering), and
// the per-type-groups variant computes a different TypeRefsTable than
// the keyed default — both must build from scratch.
func (c *config) cacheable() bool {
	return c.cacheDir != "" && len(c.passes) == 0 && !c.opts.PerTypeGroups
}

// warmStart attempts to construct the Analyzer's state from a persisted
// artifact. It returns (env, querySnap, ArtifactHit) on success;
// (nil, nil, ArtifactMiss/ArtifactInvalid) when the caller should
// build from scratch and rewrite the artifact. It never returns a
// partially decoded environment: any failure while re-wiring the
// decoded snapshot demotes to a from-scratch build.
//
// The returned query snapshot is prebuilt from the artifact's
// first-visit access-path list — the same paths, the same name-dedup
// order, and so the same name → path map buildSnapshotLocked's
// instruction walk would produce, without re-walking every instruction
// of the decoded program.
func (m *Module) warmStart(cfg *config) (*driver.PassEnv, *querySnap, ArtifactStatus) {
	key := m.artifactKey(cfg.opts)
	snap, err := artifact.Load(cfg.cacheDir, key, m.c.Sema.Universe)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, ArtifactMiss
		}
		return nil, nil, ArtifactInvalid
	}
	norm := cfg.opts.Normalize()
	oracle, err := alias.NewFromSnapshot(snap.Prog, cfg.opts, snap.Index, snap.Alias)
	if err != nil {
		return nil, nil, ArtifactInvalid
	}
	var mr *modref.ModRef
	if norm.Interprocedural {
		if snap.ModRef == nil {
			return nil, nil, ArtifactInvalid
		}
		mr, err = modref.FromSnapshot(snap.Prog, modref.Config{
			RTA:       true,
			OpenWorld: norm.OpenWorld,
			Refine:    driver.RefineFromOracle(oracle),
		}, snap.Index, snap.ModRef)
		if err != nil {
			return nil, nil, ArtifactInvalid
		}
	}
	env, err := driver.SeedPassEnv(snap.Prog, cfg.opts, oracle, mr)
	if err != nil {
		return nil, nil, ArtifactInvalid
	}
	paths := make(map[string]*ir.AP, len(snap.APList))
	for _, ap := range snap.APList {
		name := ap.String()
		if _, ok := paths[name]; !ok {
			paths[name] = ap
		}
	}
	return env, &querySnap{oracle: oracle, paths: cow.FromMap(paths)}, ArtifactHit
}

// writeArtifact persists the freshly built analysis state, overwriting
// whatever was there. It forces the oracle (and, interprocedurally, the
// summaries) if the construction path did not already; a write failure
// or an unsnapshottable state only costs the next start its warm path,
// so both are swallowed.
func (m *Module) writeArtifact(cfg *config, env *driver.PassEnv) {
	oracle := env.Oracle()
	aliasSnap := oracle.Snapshot()
	if aliasSnap == nil {
		return
	}
	var mrSnap *modref.Snapshot
	if env.Opts.Interprocedural {
		if mrSnap = env.ModRef().Snapshot(); mrSnap == nil {
			return
		}
	}
	_ = artifact.Write(cfg.cacheDir, m.artifactKey(cfg.opts), env.Prog, oracle.Index(), aliasSnap, mrSnap)
}
