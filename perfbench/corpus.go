package main

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	"tbaa"
	"tbaa/internal/bench"
	"tbaa/internal/randprog"
)

// servedLevels are the analyzer configurations the served workloads
// query: the daemon's default and the interprocedural level.
var servedLevels = []tbaa.Level{tbaa.SMFieldTypeRefs, tbaa.IPTypeRefs}

// poolSize is how many query pairs each module draws. Single queries
// and 1024-pair batches both read from this pool.
const poolSize = 4096

// batchPairs is the pair count of one mayalias-batch request.
const batchPairs = 1024

// module is one input program with its seeded query pool and the
// reference verdicts the served answers are checked against.
type module struct {
	name string
	src  string
	hash string
	// interactive programs read input the benchmark does not supply, so
	// their output is never compared.
	interactive bool
	pool        []tbaa.Pair
	edit        *editTarget
	// ref[state][level] holds the verdict for every pool pair, computed
	// by a from-scratch in-process analyzer of that module state.
	ref [2][][]bool
	// gen0 is the generation the daemon answered the upload with; for
	// the edit target, generation gen0+k is the state after k edits.
	gen0 uint64
}

// editTarget is the procedure the edit stream rewrites, alternating
// between its original declaration and a variant with one store
// duplicated.
type editTarget struct {
	proc    string
	orig    string
	variant string
}

// decl returns the declaration the k-th edit (counting from 1) installs.
func (e *editTarget) decl(k int) string {
	if k%2 == 1 {
		return e.variant
	}
	return e.orig
}

// stockCorpus is the ten Table 4 programs.
func stockCorpus() []*module {
	var out []*module
	for _, b := range bench.All() {
		out = append(out, &module{name: b.Name + ".m3", src: b.Source, hash: tbaa.ModuleHash(b.Source), interactive: b.Interactive})
	}
	return out
}

// scaleSeed is the generator seed of the 100k-line module. Like the
// stock corpus, the module is the same in every run, and the run's seed
// draws the traffic over it: the query pool, the read schedule and the
// edited procedure. Generated from the run's seed, the module's shape
// spread edit_ms.p50 by 0.17 and countpairs_ms by 0.11 (quartile
// distance over median, five seeds on a quiet 2-core machine) in runs
// whose cold and optimizing builds spread by 0.05-0.07: most of the
// regression bound, before any noise of the host.
const scaleSeed = 1

// scaleModule is the generated 100k-line module for a generator seed.
func scaleModule(seed int64) *module {
	src := randprog.GenerateScale(seed, randprog.ScaleConfigForLines(100_000))
	return &module{name: fmt.Sprintf("randprog-100k-%d.m3", seed), src: src, hash: tbaa.ModuleHash(src)}
}

func findModule(mods []*module, name string) *module {
	for _, m := range mods {
		if m.name == name {
			return m
		}
	}
	return nil
}

var (
	procHead  = regexp.MustCompile(`(?m)^PROCEDURE ([A-Za-z_][A-Za-z0-9_]*)\(`)
	storeLine = regexp.MustCompile(`^\s+[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*|\^)+\s*:=[^;]*;\s*$`)
)

// chooseEdit picks, by seed, a top-level procedure of m holding a
// one-line store through a path, and makes its variant by duplicating
// that store. The variant must compile as part of the module. The seed
// chooses among the largest tenth of the candidates, so that every seed
// edits a procedure of about the same size: an edit's cost grows with
// the procedure, and a workload's figures must not hinge on which one
// a seed happened to draw.
func chooseEdit(m *module, rng *rand.Rand) error {
	type cand struct {
		name       string
		start, end int
		stores     []int // line indexes within the declaration
	}
	var cands []cand
	for _, loc := range procHead.FindAllStringSubmatchIndex(m.src, -1) {
		name := m.src[loc[2]:loc[3]]
		endMark := "\nEND " + name + ";"
		rel := strings.Index(m.src[loc[0]:], endMark)
		if rel < 0 {
			continue
		}
		c := cand{name: name, start: loc[0], end: loc[0] + rel + len(endMark)}
		for i, line := range strings.Split(m.src[c.start:c.end], "\n") {
			if storeLine.MatchString(line) {
				c.stores = append(c.stores, i)
			}
		}
		if len(c.stores) > 0 {
			cands = append(cands, c)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].end-cands[i].start > cands[j].end-cands[j].start })
	top := cands[:max(1, len(cands)/10)]
	rng.Shuffle(len(top), func(i, j int) { top[i], top[j] = top[j], top[i] })
	for _, c := range cands {
		orig := m.src[c.start:c.end]
		lines := strings.Split(orig, "\n")
		at := c.stores[rng.Intn(len(c.stores))]
		dup := append(append(append([]string(nil), lines[:at+1]...), lines[at]), lines[at+1:]...)
		e := &editTarget{proc: c.name, orig: orig, variant: strings.Join(dup, "\n")}
		if _, err := tbaa.Compile(m.name, e.apply(m.src)); err == nil {
			m.edit = e
			return nil
		}
	}
	return fmt.Errorf("%s: no procedure with an editable store", m.name)
}

// apply returns src with the procedure replaced by its variant.
func (e *editTarget) apply(src string) string {
	return strings.Replace(src, e.orig, e.variant, 1)
}

// prepare draws m's query pool by seed and computes its reference
// verdicts at every served level, for both edit states of an edit
// target. Each reference is a from-scratch analyzer of the module
// state, never one that was edited in place.
func (m *module) prepare(rng *rand.Rand) error {
	states := []string{m.src}
	var edited map[string]bool
	// named is the edited state's analyzer at the first served level,
	// built to list the paths it names and reused for its references.
	var named *tbaa.Analyzer
	if m.edit != nil {
		states = append(states, m.edit.apply(m.src))
		a, err := analyzer(m.name, states[1], servedLevels[0])
		if err != nil {
			return err
		}
		named = a
		edited = map[string]bool{}
		for _, n := range a.Paths() {
			edited[n] = true
		}
	}
	for s, src := range states {
		var mod *tbaa.Module
		for li, l := range servedLevels {
			a := named
			if s == 0 || li > 0 {
				var err error
				if mod == nil {
					if mod, err = tbaa.Compile(m.name, src); err != nil {
						return fmt.Errorf("%s: %w", m.name, err)
					}
				}
				if a, err = mod.NewAnalyzer(tbaa.WithLevel(l)); err != nil {
					return fmt.Errorf("%s: %w", m.name, err)
				}
			}
			if m.pool == nil {
				// The pool holds only paths both edit states name: an
				// edit can renumber the temporaries of the procedure it
				// rewrites, and a query naming a path the answering
				// state lacks would fail.
				var names []string
				for _, n := range a.Paths() {
					if edited == nil || edited[n] {
						names = append(names, n)
					}
				}
				m.pool = make([]tbaa.Pair, poolSize)
				for i := range m.pool {
					m.pool[i] = tbaa.Pair{P: names[rng.Intn(len(names))], Q: names[rng.Intn(len(names))]}
				}
			}
			var verdicts []bool
			for _, v := range a.MayAliasBatch(context.Background(), m.pool) {
				if v.Err != nil {
					return fmt.Errorf("%s state %d: %w", m.name, s, v.Err)
				}
				verdicts = append(verdicts, v.MayAlias)
			}
			m.ref[s] = append(m.ref[s], verdicts)
		}
	}
	return nil
}

// analyzer is a from-scratch analyzer of src at level l.
func analyzer(file, src string, l tbaa.Level) (*tbaa.Analyzer, error) {
	mod, err := tbaa.Compile(file, src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	a, err := mod.NewAnalyzer(tbaa.WithLevel(l))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return a, nil
}

// state maps a generation the daemon reported to the module state that
// answered: every edit flips the target between its two states.
func (m *module) state(gen uint64) int {
	if m.edit == nil {
		return 0
	}
	return int((gen - m.gen0) % 2)
}

// check reports whether a served verdict for pool pair i at level index
// li, answered by generation gen, matches the reference.
func (m *module) check(li int, gen uint64, i int, got bool) bool {
	if gen < m.gen0 {
		return false
	}
	return m.ref[m.state(gen)][li][i%len(m.pool)] == got
}

// batch returns the pool window of one batch starting at pair i.
func (m *module) batch(i int) []tbaa.Pair {
	out := make([]tbaa.Pair, batchPairs)
	for k := range out {
		out[k] = m.pool[(i+k)%len(m.pool)]
	}
	return out
}

func levelName(l tbaa.Level) string { return strings.ToLower(l.String()) }
