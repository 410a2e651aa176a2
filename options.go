package tbaa

import (
	"errors"

	"tbaa/internal/alias"
)

// Option configures an Analyzer at construction (see Module.NewAnalyzer
// and New). Options are applied in order; a failing option aborts
// construction with its error.
type Option func(*config) error

type config struct {
	opts     alias.Options
	passes   []Pass
	stats    *Stats
	cacheDir string
}

func newConfig(options []Option) (*config, error) {
	cfg := &config{opts: alias.Options{Level: alias.LevelSMFieldTypeRefs}}
	for _, o := range options {
		if o == nil {
			continue
		}
		if err := o(cfg); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

// WithLevel selects the alias analysis level. The default is
// SMFieldTypeRefs, the paper's most precise analysis. An out-of-range
// level is rejected with a descriptive error.
func WithLevel(l Level) Option {
	return func(c *config) error {
		if err := l.validate(); err != nil {
			return err
		}
		c.opts.Level = alias.Level(l)
		return nil
	}
}

// WithOpenWorld applies Section 4's conservative extensions for
// incomplete programs: AddressTaken also holds for any path whose type
// equals some pass-by-reference formal's type, and all subtype-related
// non-branded object types are merged.
func WithOpenWorld(open bool) Option {
	return func(c *config) error {
		c.opts.OpenWorld = open
		return nil
	}
}

// WithPerTypeGroups selects the paper's footnote-2 variant of
// SMTypeRefs that maintains a separate group per type (directed
// propagation) instead of union-find equivalence classes. More precise,
// slower. Ignored below SMFieldTypeRefs.
func WithPerTypeGroups(perType bool) Option {
	return func(c *config) error {
		c.opts.PerTypeGroups = perType
		return nil
	}
}

// WithPasses sets the optimization pipeline the Analyzer runs over its
// freshly lowered program at construction, in order (see RLE, PRE, and
// MinvInline). The default is no passes: the Analyzer answers queries
// about the unoptimized program.
func WithPasses(passes ...Pass) Option {
	return func(c *config) error {
		for _, p := range passes {
			if p == nil {
				return errors.New("tbaa: WithPasses: nil Pass")
			}
		}
		c.passes = append([]Pass(nil), passes...)
		return nil
	}
}

// WithArtifactCache enables the persistent analysis-artifact cache
// rooted at dir (created on first write). When the module's snapshot
// for the requested (level, open-world) configuration is already on
// disk — keyed by the module content hash, the artifact format version,
// and the producing toolchain — NewAnalyzer decodes it and skips the
// analysis build entirely; otherwise it builds from scratch and writes
// the artifact for the next start. Any mismatch, truncation, or decode
// failure silently falls back to a from-scratch build and overwrites
// the bad artifact, so a corrupt cache can only cost performance, never
// soundness. Analyzer.ArtifactStatus reports which road was taken.
//
// Configurations whose state is not a pure function of the keyed inputs
// bypass the cache: an optimization pipeline (WithPasses) mutates the
// program after lowering, and WithPerTypeGroups at SMFieldTypeRefs and
// above computes a different table than the keyed default.
func WithArtifactCache(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return errors.New("tbaa: WithArtifactCache: empty directory")
		}
		c.cacheDir = dir
		return nil
	}
}

// WithStats attaches a query-counter collector to the Analyzer. One
// Stats value may be shared by several Analyzers to aggregate across a
// fleet; its methods are safe for concurrent use.
func WithStats(s *Stats) Option {
	return func(c *config) error {
		c.stats = s
		return nil
	}
}
