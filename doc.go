// Package tbaa reproduces "Type-Based Alias Analysis" (Diwan, McKinley,
// Moss; PLDI 1998) as an embeddable analysis library over a Modula-3
// subset (MiniM3) compiled and executed by this module. The package is
// the module's public face: the CLIs (cmd/tbaa, cmd/tbaabench), the
// examples, and the evaluation harness (internal/eval) are all built
// on the API defined here, and nothing outside this module needs the
// internal packages.
//
// # Compiling and analyzing
//
// Compile parses and type-checks a module once, producing a reusable
// Module — one frontend, many lowered programs:
//
//	mod, err := tbaa.Compile("lib.m3", src)
//	a, err := mod.NewAnalyzer(tbaa.WithLevel(tbaa.SMFieldTypeRefs))
//
// Each NewAnalyzer call lowers a private IR program, runs the
// configured optimization passes over it, and builds the alias oracle;
// Modules are immutable, so any number of Analyzers can be constructed
// concurrently (the evaluation harness builds one per worker). New is
// the one-call form for single-use analysis. Frontend failures are
// typed: *ParseError for syntax errors and *CheckError for semantic
// errors, both carrying file/line Diagnostics.
//
// # Analysis levels
//
// The first three levels reproduce the paper's analyses in increasing
// precision, selected with WithLevel; the last two are this module's
// flow-sensitive and interprocedural extensions:
//
//   - TypeDecl (Section 2.2): two access paths may alias iff the
//     subtype sets of their declared types intersect.
//   - FieldTypeDecl (Section 2.3): the seven-case refinement of Table 2
//     using field names and the AddressTaken predicate.
//   - SMFieldTypeRefs (Section 2.4, the default): FieldTypeDecl with
//     TypeDecl replaced by selective type merging over the program's
//     pointer assignments (Figure 2) — the paper's headline analysis.
//   - FSTypeRefs (extension): SMFieldTypeRefs
//     refined by an intraprocedural reaching-stores dataflow that
//     narrows, per statement, the set of allocated types each pointer
//     variable may reference.
//   - IPTypeRefs (extension): FSTypeRefs
//     extended with interprocedural mod-ref summaries over a Rapid
//     Type Analysis call graph, so calls kill only what their possible
//     callees may actually modify.
//
// FSTypeRefs narrows where the allocation context is visible. In
//
//	VAR x, y: T;            (* S1, S2 subtype T *)
//	BEGIN
//	  x := NEW(S1);
//	  y := NEW(S2);
//	  FOR k := 1 TO 10 DO
//	    y.i := k;           (* cannot kill x.i: {S1} ∩ {S2} = ∅ *)
//	    sum := sum + x.i;   (* hoisted by FS-driven RLE *)
//	  END;
//
// SMFieldTypeRefs merges S1 and S2 into T's row (both flow into
// T-typed variables), so x.i and y.i may alias and the loop load of
// x.i is pinned; FSTypeRefs proves the two roots reference disjoint
// allocations at those statements, CountPairs drops the pair, and RLE
// hoists the load. NEW generates exact allocated types, assignments
// propagate them, loads re-narrow through per-path store facts, and
// calls or stores through locations conservatively kill. Context-free
// MayAlias answers are identical to SMFieldTypeRefs — the refinement
// applies to statement-anchored facts (CountPairs, RLE/PRE kill
// decisions), which is where flow-sensitivity is meaningful.
//
// # Interprocedural analysis
//
// FSTypeRefs still treats every call as an opaque kill. IPTypeRefs
// resolves calls against a Rapid Type Analysis call graph — method
// invocations dispatch only to implementations an instantiated
// receiver type can select, narrowed further by the TypeRefsTable —
// and gives every procedure a transitive mod-ref summary, computed
// bottom-up over call-graph SCCs (one shared summary per SCC is the
// exact fixpoint for recursion; escapes that cannot be bounded, such
// as an open world's unknown subtypes, widen soundly). Calls then
// kill only the facts their possible callees may modify. In
//
//	x := NEW(S1);
//	y := NEW(S2);
//	sum := Pure(sum);       (* modifies no heap location *)
//	FOR k := 1 TO 10 DO
//	  y.i := k;
//	  sum := sum + x.i;     (* hoisted by IP-driven RLE *)
//	END;
//
// FSTypeRefs forgets x's and y's allocation facts at the Pure call
// (any callee might rebind a global), so the loop load of x.i stays
// pinned; IPTypeRefs consults Pure's empty summary, keeps both facts,
// and RLE hoists the load. The summaries also understand invocation
// freshness — a callee's stores into objects it (transitively)
// allocates itself cannot touch anything the caller had cached — which
// is what lets recursive constructor calls keep availability alive in
// the paper-suite benchmarks (k-tree, pp). Table IP scores the layer
// per benchmark; the pass manager rebuilds summaries whenever
// devirtualization or inlining changes the call graph.
//
// # The open-world switch
//
// WithOpenWorld(true) applies Section 4's conservative extensions for
// incomplete programs: AddressTaken additionally holds for any path
// whose type matches a pass-by-reference formal, and subtype-related
// non-branded object types are merged (branded types observe name
// equivalence, so unavailable code cannot forge them and they stay
// precise).
//
// # Batch queries
//
// Access paths are named by their source syntax ("t.f", "a.b^",
// "v[i]"; Analyzer.Paths lists the vocabulary). MayAlias answers one
// query; MayAliasBatch answers a slice of Pairs, sharding large
// vectors across GOMAXPROCS workers, honoring context cancellation
// between pairs, and returning one Verdict per Pair; Queries is the
// lazy iterator form.
//
// # Query snapshots and concurrency
//
// An Analyzer is safe for concurrent use and its queries never block
// one another: the query path reads an immutable snapshot — the
// partition oracle (alias classes over the program's interned access
// paths plus a precomputed compatibility bitmatrix, making a
// context-free MayAlias two ID loads and a bitset test) and the
// access-path name index — published through an atomic pointer. Every
// query resolves against exactly one snapshot, so a batch or iteration
// always sees internally consistent verdicts. Invalidate discards the
// memoized analysis state (oracle, mod-ref summaries, flow facts) and
// atomically publishes a rebuilt snapshot: queries in flight finish
// against the snapshot they started with, queries that start after
// Invalidate returns see only the rebuilt state, and rebuilds are
// deterministic, so verdicts change across generations only when the
// program itself changed. One Analyzer can therefore serve many
// goroutines at full parallelism; building one Analyzer per goroutine
// from a shared Module remains useful only to parallelize pass
// pipelines, not queries.
//
// Rebuilds are priced by the edit, not the module. Every mutation site
// — an optimization pass rewriting a body, or a single-procedure edit
// applied through Module.EditProc and Analyzer.ApplyEdit — stamps the
// mutated procedures on a per-procedure mutation clock, and the next
// rebuild re-interns and re-partitions only the stamped bodies' access
// paths, recomputes only their flow facts, and re-summarizes only
// their mod-ref SCCs and the SCCs that transitively reach them. The
// delta path guards itself: whenever its preconditions do not hold
// (an unstamped mutation may be hiding, or a module-wide fact table
// grew), it refuses and the rebuild falls back to the from-scratch
// construction, which is always exact. Incremental and from-scratch
// builds are differentially pinned to byte-equal verdicts at every
// level, so a dirty-tracking bug can only cost performance — an
// unnecessary full rebuild — never soundness.
//
// # Optimization passes
//
// WithPasses(RLE(), PRE(), Devirt(), MinvInline()...) schedules the
// paper's optimizations over the freshly lowered program: redundant
// load elimination (Section 3.4.1), partial redundancy elimination
// (the paper's future work), standalone method invocation resolution,
// and the fused resolution + inlining pipeline (Section 3.7). The pass
// manager rebuilds alias and mod-ref facts when a structural pass
// invalidates them; PassResults reports what each pass did. Run, Simulate, and LimitStudy then execute the
// optimized program under the interpreter, the cache timing model, and
// the dynamic redundant-load limit study respectively.
//
// # Serving queries as a daemon
//
// The snapshot discipline is what makes the Analyzer servable:
// cmd/tbaad packages it as a long-lived HTTP daemon that accepts
// module uploads (compiled once, cached by ModuleHash — a stable
// content hash of the source, also available as Module.Hash), builds
// Analyzers lazily per requested configuration, and serves
// MayAlias/MayAliasBatch/CountPairs to any number of concurrent
// clients with bounded memory (LRU module eviction), load shedding,
// per-request timeouts, and Prometheus metrics over the shared
// internal/metrics op vocabulary. Re-uploading a module
// swaps its compiled state atomically: requests in flight finish on
// the generation they resolved. cmd/tbaactl is the matching client;
// see README.md "Running the analysis server".
//
// The daemon is built to degrade rather than die, and proves it under
// injected faults (internal/fault, armed by tbaad -faults): every
// request runs under a panic-recovery barrier (a panic answers 500,
// never kills the process), a configuration that panics repeatedly is
// quarantined per (module, level, open-world) key — answered 422
// until a force re-upload recompiles pristine source — and a memory
// watermark (-mem-limit, defaulting from GOMEMLIMIT) sheds uploads
// with 503 + Retry-After and evicts least-recently-used modules while
// queries against resident state keep answering. GET /readyz reports
// readiness honestly (503 while draining or under pressure), and
// tbaactl retries transient answers — connection errors, 429/503/504
// — with jittered exponential backoff honoring Retry-After, for
// idempotent requests only. See README.md "Fault tolerance".
//
// # Persistent artifacts and warm start
//
// WithArtifactCache(dir) adds a disk tier under analyzer
// construction: a built analysis snapshot — the lowered program, the
// interned access-path table, the alias-class partition with its
// compatibility matrix, and (interprocedurally) the mod-ref summaries
// — is persisted as a versioned, checksummed artifact keyed by
// (Module.Hash, level, open-world, format version, Go toolchain).
// A later NewAnalyzer over the same key decodes the snapshot and
// publishes it without lowering or re-analysis; ArtifactStatus reports
// whether a build hit, missed, or recovered from an invalid artifact.
// Every failure mode — missing file, truncation, bit flips, version or
// toolchain skew, a key naming a different module — falls back to a
// from-scratch build and rewrites the artifact, so corruption can only
// cost performance, never soundness. Configurations that mutate the
// program (WithPasses) or change the table shape (WithPerTypeGroups)
// bypass the tier, as does a Module edited in place by EditProc (its
// hash no longer names its semantics). cmd/tbaad exposes the tier as
// -cache-dir: a restarted daemon warm-starts its resident analyzers,
// and an edit invalidates the edited module's artifacts before the
// successor generation publishes.
//
// # The evaluation harness
//
// The harness that regenerates the paper's Tables 4-6 and Figures 8-12
// — plus Table FS, which scores the flow-sensitive refinement against
// SMFieldTypeRefs, and Table IP, which scores the interprocedural
// layer against both — and the scale sweep is not part of this
// package: it lives in internal/eval, behind cmd/tbaabench, and drives
// the Analyzers defined here. Benchmarks returns the built-in
// ten-program suite it measures.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results.
package tbaa
