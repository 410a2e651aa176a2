package driver

import (
	"errors"

	"tbaa/internal/alias"
	"tbaa/internal/ir"
	"tbaa/internal/modref"
)

// SeedPassEnv wraps prog with analyses decoded from a persisted
// artifact instead of building them: the warm-start counterpart of
// NewPassEnv + Oracle()/ModRef(). The oracle (and, interprocedurally,
// the summaries) are installed as already built, and the environment's
// build clock is pinned to the program's current mutation clock, so a
// later Invalidate + edit takes the ordinary incremental path — the
// decoded generation seeds alias.Update exactly as a built one would,
// while modref.Update (which needs construction-only state a snapshot
// does not carry) falls back to a full, always-exact ComputeWith.
//
// Under an interprocedural configuration mr must be non-nil; the
// oracle's flow-sensitive call-kill rule is wired to it before the
// environment is handed out, mirroring Oracle().
func SeedPassEnv(prog *ir.Program, opts alias.Options, oracle *alias.Analysis, mr *modref.ModRef) (*PassEnv, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if oracle == nil {
		return nil, errors.New("driver: seeding requires a decoded oracle")
	}
	e := &PassEnv{
		Prog:       prog,
		Opts:       opts,
		oracle:     oracle,
		mr:         mr,
		builtClock: prog.MutClock(),
	}
	if e.Opts.Level == alias.LevelIPTypeRefs {
		if mr == nil {
			return nil, errors.New("driver: interprocedural seeding requires decoded mod-ref summaries")
		}
		oracle.SetCallSummaries(ipSummaries{mr: mr, o: oracle, at: prog.AddressTakenVars})
	}
	return e, nil
}
