package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"tbaa"
	"tbaa/internal/alias"
	"tbaa/internal/artifact"
	"tbaa/internal/ast"
	"tbaa/internal/driver"
	"tbaa/internal/ir"
	"tbaa/internal/lower"
	"tbaa/internal/modref"
	"tbaa/internal/parser"
	"tbaa/internal/sema"
	"tbaa/internal/server"
)

// The traced run breaks each path into layers by calling every layer's
// public functions from here, one stage at a time, inside spans. It
// also times the same paths untraced: through the facade for the
// stage-sum check, and replayed with no tracer for the tracing overhead.

// stageSumTolerance is how far the summed stage times of one cold or
// optimizing build may stray from the untraced build before the
// breakdown counts as missing a stage. The stages leave out the facade's
// module hash and access-path name index (a few percent at 100k lines);
// the rest of the allowance is run-to-run noise between two builds
// timed a few seconds apart. The check, like the tracing overhead,
// compares the fastest iteration of each side: the traced run has few
// iterations, and a stall of a shared host only ever adds time.
const stageSumTolerance = 0.2

// The traced run spends these shares of --seconds replaying builds and
// on the served phase over the socket; the rest goes to the handler
// and facade replays, whose request counts are fixed.
const (
	tracedBuildShare  = 0.3
	tracedServedShare = 0.3
)

func fastest(xs []float64) float64 { return quantile(xs, 0) }

func (r *run) traced(w *workload, served, buildMods []*module) error {
	tr := newTracer()
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0, 0)
	}
	budget := time.Duration(r.seconds * float64(time.Second))
	debug.FreeOSMemory()
	if len(buildMods) > 0 {
		bms, err := compileBuildMods(buildMods)
		if err != nil {
			return err
		}
		if _, err := seedArtifacts(bms, r.path("artifacts")); err != nil {
			return err
		}
		if err := r.traceBuilds(tr, bms, time.Duration(tracedBuildShare*float64(budget))); err != nil {
			return err
		}
		r.logf("build layers traced")
	}
	debug.FreeOSMemory()
	if err := r.traceServed(tr, w.served, served); err != nil {
		return err
	}
	r.logf("served layers traced")
	debug.FreeOSMemory()
	if err := r.traceSocket(w.served, served, time.Duration(tracedServedShare*float64(budget))); err != nil {
		return err
	}
	r.logf("socket measured")
	dir := filepath.Join(filepath.Dir(r.workdir), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-%d.json", r.workload, r.seed)))
}

// medianSelf is the median over operations of the self time, in ms,
// of the spans named name within one operation, and how many
// operations there were. An operation is one request, or one build of
// the whole corpus.
func medianSelf(tr *tracer, name string) (float64, int) {
	ms, _ := perOp(tr, name)
	return median(ms), len(ms)
}

func medianAllocMB(tr *tracer, name string) float64 {
	_, mb := perOp(tr, name)
	return median(mb)
}

// perOp sums the self time (ms) and self allocation (MB) of the spans
// named name per operation, in order of first appearance.
func perOp(tr *tracer, name string) (ms, mb []float64) {
	self := selfTimes(tr.spans)
	at := map[int]int{}
	for i, s := range tr.spans {
		if s.Name != name {
			continue
		}
		k, ok := at[s.Op]
		if !ok {
			k = len(ms)
			at[s.Op] = k
			ms, mb = append(ms, 0), append(mb, 0)
		}
		ms[k] += float64(self[i].Dur) / float64(time.Millisecond)
		mb[k] += float64(self[i].Alloc) / (1 << 20)
	}
	return ms, mb
}

// setMS records the median self time of the spans named span.
func (r *run) setMS(tr *tracer, metric, span string) {
	v, n := medianSelf(tr, span)
	if n > 0 {
		r.set(metric, "ms", v, n)
	}
}

// ---------------------------------------------------------------------------
// Build layers

// replay is one stage-by-stage build of a module through the layers'
// own entry points.
type replay struct {
	sp     *sema.Program
	prog   *ir.Program
	oracle *alias.Analysis
	mr     *modref.ModRef
}

// frontend replays parse, then check plus the universe precompute.
func frontend(tr *tracer, op int, m *module) (*replay, error) {
	var mod *ast.Module
	var err error
	tr.do("parser", op, func() { mod, err = parser.Parse(m.name, m.src) })
	if err != nil {
		return nil, err
	}
	rp := &replay{}
	tr.do("sema", op, func() {
		rp.sp, err = sema.Check(mod)
		if err == nil {
			rp.sp.Universe.Precompute()
		}
	})
	if err != nil {
		return nil, err
	}
	tr.do("lower", op, func() { rp.prog = lower.Lower(rp.sp) })
	return rp, nil
}

func countLines(src string) int {
	n := 0
	for _, c := range src {
		if c == '\n' {
			n++
		}
	}
	return n
}

// pathIndex maps access-path names to the program's paths, the way the
// facade names them.
func pathIndex(prog *ir.Program) map[string]*ir.AP {
	idx := map[string]*ir.AP{}
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			for i := range b.Instrs {
				if ap := b.Instrs[i].AP; ap != nil {
					if _, ok := idx[ap.String()]; !ok {
						idx[ap.String()] = ap
					}
				}
			}
		}
	}
	return idx
}

func resolvePair(idx map[string]*ir.AP, p tbaa.Pair) (*ir.AP, *ir.AP, error) {
	a, b := idx[p.P], idx[p.Q]
	if a == nil || b == nil {
		return nil, nil, fmt.Errorf("no access path for (%s, %s)", p.P, p.Q)
	}
	return a, b, nil
}

// coldReplay is the cold build stage by stage: parse, check, lower, the
// alias build (TypeRefsTable and AP interning), and the partition plus
// compatibility matrix the first MayAlias pays for.
func coldReplay(tr *tracer, op int, b *buildMod) (*replay, error) {
	root := tr.begin("cold", op)
	defer tr.end(root)
	rp, err := frontend(tr, op, b.m)
	if err != nil {
		return nil, err
	}
	opts := alias.Options{Level: alias.LevelSMFieldTypeRefs}
	tr.do("alias.new", op, func() { rp.oracle = alias.New(rp.prog, opts) })
	p, q, err := resolvePair(pathIndex(rp.prog), b.m.pool[0])
	if err != nil {
		return nil, err
	}
	var v bool
	tr.do("alias.partition", op, func() { v = rp.oracle.MayAlias(p, q) })
	if v != b.m.ref[0][0][0] {
		return nil, fmt.Errorf("%s: replayed cold verdict differs from the reference", b.m.name)
	}
	return rp, nil
}

// optReplay is the optimizing build stage by stage: the cold stages at
// IPTypeRefs, mod-ref summaries, RLE through the pass driver, and the
// first verdict.
func optReplay(tr *tracer, op int, b *buildMod) (*replay, int, error) {
	root := tr.begin("opt", op)
	defer tr.end(root)
	rp, err := frontend(tr, op, b.m)
	if err != nil {
		return nil, 0, err
	}
	opts := alias.Options{Level: alias.LevelIPTypeRefs}
	tr.do("alias.new", op, func() { rp.oracle = alias.New(rp.prog, opts) })
	tr.do("modref", op, func() {
		rp.mr = modref.ComputeWith(rp.prog, modref.Config{RTA: true, Refine: driver.RefineFromOracle(rp.oracle)})
	})
	env, err := driver.SeedPassEnv(rp.prog, opts, rp.oracle, rp.mr)
	if err != nil {
		return nil, 0, err
	}
	var res []driver.PassResult
	tr.do("opt.rle", op, func() { res, err = driver.RunPasses(env, driver.RLEPass{}) })
	if err != nil {
		return nil, 0, err
	}
	p, q, err := resolvePair(pathIndex(rp.prog), b.m.pool[0])
	if err != nil {
		return nil, 0, err
	}
	tr.do("alias.first_verdict", op, func() { rp.oracle.MayAlias(p, q) })
	return rp, res[0].Removed(), nil
}

// traceBuilds replays the build corpus stage by stage beside untraced
// builds of the same corpus, until the budget is spent (at least two
// iterations). Times are summed over the corpus per iteration, as in
// the timed run.
func (r *run) traceBuilds(tr *tracer, bms []*buildMod, budget time.Duration) error {
	var untracedCold, untracedOpt, tracedCold, tracedOpt, plainCold, plainOpt, coldSum, optSum []float64
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	t0 := time.Now()
	for it := 0; it < 2 || time.Since(t0) < budget; it++ {
		var uc, uo, tc, to, plc, plo, cs, osum time.Duration
		var counts layerCounts
		for _, b := range bms {
			d, err := coldBuild(b)
			if err != nil {
				return err
			}
			uc += d
			runtime.GC()
			d, a, err := optBuild(b)
			if err != nil {
				return err
			}
			uo += d
			if _, err := countPairs(b, a); err != nil {
				return err
			}

			runtime.GC()
			op := 2*it + 1
			first := len(tr.spans)
			crp, err := coldReplay(tr, op, b)
			if err != nil {
				return err
			}
			c, s := rootAndStages(tr, first, "cold")
			tc, cs = tc+c, cs+s
			if err := traceColdExtras(tr, op, b, crp, r.path("replay-artifacts"), &counts); err != nil {
				return err
			}

			runtime.GC()
			op = 2*it + 2
			first = len(tr.spans)
			orp, removed, err := optReplay(tr, op, b)
			if err != nil {
				return err
			}
			if removed != b.removed {
				return fmt.Errorf("%s: replayed RLE removed %d loads, the facade %d", b.m.name, removed, b.removed)
			}
			c, s = rootAndStages(tr, first, "opt")
			to, osum = to+c, osum+s
			var pc alias.PairCounts
			tr.do("alias.countpairs", op, func() { pc = alias.CountPairs(orp.prog, orp.oracle) })
			if pc.References != b.counts.References || pc.Local != b.counts.Local || pc.Global != b.counts.Global {
				return fmt.Errorf("%s: replayed CountPairs %+v, the facade %+v", b.m.name, pc, *b.counts)
			}
			if err := traceFacadeBuild(tr, op, b); err != nil {
				return err
			}

			// The same replays with a nil tracer, which records nothing,
			// give the tracing overhead.
			runtime.GC()
			t := time.Now()
			if _, err := coldReplay(nil, op, b); err != nil {
				return err
			}
			plc += time.Since(t)
			runtime.GC()
			t = time.Now()
			if _, _, err := optReplay(nil, op, b); err != nil {
				return err
			}
			plo += time.Since(t)
		}
		untracedCold, untracedOpt = append(untracedCold, ms(uc)), append(untracedOpt, ms(uo))
		tracedCold, tracedOpt = append(tracedCold, ms(tc)), append(tracedOpt, ms(to))
		plainCold, plainOpt = append(plainCold, ms(plc)), append(plainOpt, ms(plo))
		coldSum, optSum = append(coldSum, ms(cs)), append(optSum, ms(osum))
		r.set("lower.instrs", "count", float64(counts.instrs), 1)
		r.set("ir.aps", "count", float64(counts.aps), 1)
		r.set("alias.classes", "count", float64(counts.classes), 1)
		r.set("artifact.bytes", "bytes", float64(counts.bytes), 1)
		r.attempted += 2 * len(bms)
	}
	for _, n := range []string{"parser", "sema", "lower"} {
		r.setMS(tr, n+".ms", n)
	}
	for _, n := range []string{"parser", "sema", "lower", "alias.new", "modref", "opt.rle"} {
		_, k := medianSelf(tr, n)
		r.set(n+".alloc_mb", "MB", medianAllocMB(tr, n), k)
	}
	for metric, span := range map[string]string{
		"ir.intern.ms": "ir.intern", "alias.new.ms": "alias.new", "alias.partition.ms": "alias.partition",
		"modref.ms": "modref", "opt.rle.ms": "opt.rle", "alias.countpairs.ms": "alias.countpairs",
		"artifact.encode.ms": "artifact.encode", "artifact.decode.ms": "artifact.decode",
		"tbaa.new_analyzer.ms": "tbaa.new_analyzer", "tbaa.snapshot.ms": "tbaa.snapshot",
	} {
		r.setMS(tr, metric, span)
	}
	var lines int
	for _, b := range bms {
		lines += countLines(b.m.src)
	}
	if v, n := medianSelf(tr, "parser"); n > 0 && v > 0 {
		r.set("parser.lines_per_s", "1/s", float64(lines)/(v/1000), n)
	}
	var removed int
	for _, b := range bms {
		removed += b.removed
	}
	r.set("opt.rle.removed", "count", float64(removed), len(untracedOpt))
	coldShare := fastest(coldSum) / fastest(untracedCold)
	optShare := fastest(optSum) / fastest(untracedOpt)
	r.set("stagesum.cold.share", "ratio", coldShare, len(coldSum))
	r.set("stagesum.opt.share", "ratio", optShare, len(optSum))
	plain := fastest(plainCold) + fastest(plainOpt)
	r.set("trace.overhead_pct", "%", 100*(fastest(tracedCold)+fastest(tracedOpt)-plain)/plain, len(tracedCold))
	fmt.Printf("stage sum: cold %.1f ms of %.1f ms untraced (%.3f), opt %.1f ms of %.1f ms untraced (%.3f), tolerance %.2f\n",
		fastest(coldSum), fastest(untracedCold), coldShare, fastest(optSum), fastest(untracedOpt), optShare, stageSumTolerance)
	for _, share := range []float64{coldShare, optShare} {
		if share < 1-stageSumTolerance || share > 1+stageSumTolerance {
			r.fail(fmt.Errorf("stage-sum check: stages cover %.3f of the untraced build, outside 1±%.2f", share, stageSumTolerance))
		}
	}
	return nil
}

// rootAndStages returns the duration of the root span named root
// recorded at or after index first, and the summed durations of its
// direct children.
func rootAndStages(tr *tracer, first int, root string) (total, stages time.Duration) {
	for i := first; i < len(tr.spans); i++ {
		s := tr.spans[i]
		if s.Name == root && s.Parent < first {
			total = s.End - s.Start
			for j := i + 1; j < len(tr.spans); j++ {
				if tr.spans[j].Parent == i {
					stages += tr.spans[j].End - tr.spans[j].Start
				}
			}
			return total, stages
		}
	}
	return 0, 0
}

// traceColdExtras times the layers the cold build reaches only inside
// another call: AP interning on a second lowering (alias.New interns
// its own, so this one is not counted twice), and artifact encode and
// decode of the replayed analysis.
func traceColdExtras(tr *tracer, op int, b *buildMod, rp *replay, dir string, counts *layerCounts) error {
	prog := lower.Lower(rp.sp)
	runtime.GC()
	var idx *ir.APIndex
	tr.do("ir.intern", op, func() { idx = ir.InternAPs(prog) })
	var instrs int
	for _, p := range prog.Procs {
		for _, bl := range p.Blocks {
			instrs += len(bl.Instrs)
		}
	}
	snap := rp.oracle.Snapshot()
	if snap == nil {
		return fmt.Errorf("%s: replayed analysis has no snapshot", b.m.name)
	}
	key := artifact.Key{ModuleHash: b.m.hash, Level: int(alias.LevelSMFieldTypeRefs)}
	var err error
	tr.do("artifact.encode", op, func() {
		err = artifact.Write(dir, key, rp.prog, rp.oracle.Index(), rp.oracle.Snapshot(), nil)
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(artifact.Path(dir, key))
	if err != nil {
		return err
	}
	tr.do("artifact.decode", op, func() { _, err = artifact.Load(dir, key, rp.sp.Universe) })
	if err != nil {
		return err
	}
	counts.instrs += instrs
	counts.aps += idx.Len()
	counts.classes += len(snap.RepIIDs)
	counts.bytes += fi.Size()
	return nil
}

// layerCounts are the work counts of one build of the corpus: lowered
// instructions, interned access paths, alias classes and artifact size.
type layerCounts struct {
	instrs, aps, classes int
	bytes                int64
}

// traceFacadeBuild times the facade's own share of a cold build:
// NewAnalyzer (lowering and the pass environment) and the first Paths
// (the oracle build plus the access-path name index).
func traceFacadeBuild(tr *tracer, op int, b *buildMod) error {
	runtime.GC()
	var a *tbaa.Analyzer
	var err error
	tr.do("tbaa.new_analyzer", op, func() { a, err = b.compiled.NewAnalyzer(tbaa.WithLevel(tbaa.SMFieldTypeRefs)) })
	if err != nil {
		return err
	}
	tr.do("tbaa.snapshot", op, func() { a.Paths() })
	return nil
}

// ---------------------------------------------------------------------------
// Served layers

// handlerTransport answers HTTP requests by calling a handler in
// process: the server layer without a socket.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// tracedRequests is how many single queries, batches and edits the
// traced served replay sends through the handler.
const (
	tracedSingles = 2000
	tracedBatches = 20
)

// traceServed sends the served workload's requests through the
// handler without a socket, then through the tbaa facade without the
// handler, then through the oracle without the facade, and replays the
// edit target's delta path layer by layer.
func (r *run) traceServed(tr *tracer, spec *servedSpec, mods []*module) error {
	gc0 := readGC()
	srv := server.New(server.Config{})
	c := &http.Client{Transport: handlerTransport{srv.Handler()}}
	s := newSession("http://handler", mods, spec.target)
	s.picks = drawPicks(mods, r.rng, 1<<16)
	if err := s.upload(c, tr); err != nil {
		return err
	}
	ops := 0
	check := func(err error) {
		r.attempted++
		ops++
		if err != nil {
			r.fail(err)
		}
	}
	for i := 0; i < tracedSingles; i++ {
		id := tr.begin("server.mayalias", i)
		err := s.single(c, i)
		tr.end(id)
		check(err)
		if i%50 == 25 {
			id := tr.begin("server.edit", i)
			err := s.edit(c)
			tr.end(id)
			check(err)
		}
	}
	for i := 0; i < tracedBatches; i++ {
		id := tr.begin("server.batch", i)
		err := s.batch(c, i*997)
		tr.end(id)
		check(err)
	}
	gc1 := readGC()
	r.set("gc.cycles_per_op", "count", float64(gc1.cycles-gc0.cycles)/float64(max(ops, 1)), ops)
	r.set("gc.pause_ms.p99", "ms", gc0.pauseP99Since(gc1), int(gc1.cycles-gc0.cycles))
	r.set("heap.live_mb", "MB", liveHeapMB(), 1)
	runtime.KeepAlive(srv)
	v, n := medianSelf(tr, "server.mayalias")
	r.set("server.mayalias.us", "us", v*1000, n)
	r.setMS(tr, "server.batch.ms", "server.batch")
	r.setMS(tr, "server.edit.ms", "server.edit")
	r.setMS(tr, "server.upload.ms", "server.upload")
	runtime.GC()

	var facadeNS, batchNS, oracleNS []float64
	for i, m := range mods {
		f, bt, o, err := traceQueries(tr, i, m)
		if err != nil {
			return err
		}
		facadeNS, batchNS, oracleNS = append(facadeNS, f), append(batchNS, bt), append(oracleNS, o)
	}
	r.set("tbaa.mayalias.ns", "ns", median(facadeNS), len(facadeNS))
	r.set("tbaa.batch.ns_per_pair", "ns", median(batchNS), len(batchNS))
	r.set("alias.mayalias.ns", "ns", median(oracleNS), len(oracleNS))
	return r.traceEdits(tr, s.target)
}

// traceQueries times the pool's queries through the facade by name,
// as one batch, and through the oracle on resolved paths, per query.
// Every facade verdict is checked against the reference.
func traceQueries(tr *tracer, op int, m *module) (facade, batch, oracle float64, err error) {
	mod, err := tbaa.Compile(m.name, m.src)
	if err != nil {
		return 0, 0, 0, err
	}
	a, err := mod.NewAnalyzer(tbaa.WithLevel(tbaa.SMFieldTypeRefs))
	if err != nil {
		return 0, 0, 0, err
	}
	a.MayAlias(m.pool[0].P, m.pool[0].Q)
	got := make([]bool, len(m.pool))
	id := tr.begin("tbaa.mayalias", op)
	for i, p := range m.pool {
		got[i], err = a.MayAlias(p.P, p.Q)
		if err != nil {
			break
		}
	}
	tr.end(id)
	if err != nil {
		return 0, 0, 0, err
	}
	for i, v := range got {
		if v != m.ref[0][0][i] {
			return 0, 0, 0, fmt.Errorf("%s: facade verdict for (%s, %s) differs from the reference", m.name, m.pool[i].P, m.pool[i].Q)
		}
	}
	perQuery := func(id int, n int) float64 {
		s := tr.spans[id]
		return float64(s.End-s.Start) / float64(n)
	}
	facade = perQuery(id, len(m.pool))
	id = tr.begin("tbaa.batch", op)
	a.MayAliasBatch(context.Background(), m.pool)
	tr.end(id)
	batch = perQuery(id, len(m.pool))

	c, err := driver.Frontend(m.name, m.src)
	if err != nil {
		return 0, 0, 0, err
	}
	prog := c.Lower()
	o := alias.New(prog, alias.Options{Level: alias.LevelSMFieldTypeRefs})
	idx := pathIndex(prog)
	aps := make([][2]*ir.AP, len(m.pool))
	for i, p := range m.pool {
		if aps[i][0], aps[i][1], err = resolvePair(idx, p); err != nil {
			return 0, 0, 0, err
		}
	}
	o.MayAlias(aps[0][0], aps[0][1])
	id = tr.begin("alias.mayalias", op)
	for _, pq := range aps {
		o.MayAlias(pq[0], pq[1])
	}
	tr.end(id)
	oracle = perQuery(id, len(aps))
	return facade, batch, oracle, nil
}

// tracedEdits is how many edits traceEdits replays.
const tracedEdits = 12

// traceEdits replays edits of the target twice: through the facade
// (Module.EditProc, then Analyzer.ApplyEdit on a SMFieldTypeRefs and an
// IPTypeRefs analyzer, as the daemon does), and through the delta
// path's own entry points on an IPTypeRefs program: ir.ExtendAPs on a
// second program, so its cost is not counted inside alias.Update, then
// alias.Update and modref.Update.
func (r *run) traceEdits(tr *tracer, m *module) error {
	mod, err := tbaa.Compile(m.name, m.src)
	if err != nil {
		return err
	}
	var as []*tbaa.Analyzer
	for _, l := range servedLevels {
		a, err := mod.NewAnalyzer(tbaa.WithLevel(l))
		if err != nil {
			return err
		}
		a.Paths()
		as = append(as, a)
	}
	for k := 1; k <= tracedEdits; k++ {
		var e *tbaa.ProcEdit
		tr.do("tbaa.module_edit", k, func() { e, err = mod.EditProc(m.edit.decl(k)) })
		if err != nil {
			return err
		}
		tr.do("tbaa.apply_edit", k, func() {
			for _, a := range as {
				if err = a.ApplyEdit(e); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		for li, a := range as {
			p := m.pool[k]
			v, err := a.MayAlias(p.P, p.Q)
			r.attempted++
			if err != nil || v != m.ref[k%2][li][k] {
				r.fail(fmt.Errorf("%s: edited analyzer verdict for (%s, %s) differs from the reference", m.name, p.P, p.Q))
			}
		}
	}
	runtime.GC()

	c, err := driver.Frontend(m.name, m.src)
	if err != nil {
		return err
	}
	prog, side := c.Lower(), c.Lower()
	opts := alias.Options{Level: alias.LevelIPTypeRefs}
	o := alias.New(prog, opts)
	cfg := modref.Config{RTA: true, Refine: driver.RefineFromOracle(o)}
	mr := modref.ComputeWith(prog, cfg)
	if _, err := driver.SeedPassEnv(prog, opts, o, mr); err != nil {
		return err
	}
	sideIdx := ir.InternAPs(side)
	for k := 1; k <= tracedEdits; k++ {
		decl, err := parseProcDecl(m.name, m.edit.decl(k))
		if err != nil {
			return err
		}
		proc, err := c.Sema.ReplaceProc(decl)
		if err != nil {
			return err
		}
		clock, sideClock := prog.MutClock(), side.MutClock()
		lower.LowerProcInto(prog, c.Sema, proc)
		lower.LowerProcInto(side, c.Sema, proc)
		dirty, sideDirty := prog.DirtySince(clock), side.DirtySince(sideClock)
		tr.do("ir.extend", k, func() { sideIdx = ir.ExtendAPs(side, sideIdx, sideDirty) })
		var next *alias.Analysis
		tr.do("alias.update", k, func() { next = alias.Update(o, dirty) })
		if next == nil {
			return fmt.Errorf("%s: alias.Update refused a one-store edit", m.name)
		}
		o = next
		var nextMR *modref.ModRef
		var consumers []*ir.Proc
		cfg.Refine = driver.RefineFromOracle(o)
		tr.do("modref.update", k, func() { nextMR, consumers = modref.Update(mr, cfg, dirty) })
		if nextMR == nil {
			return fmt.Errorf("%s: modref.Update refused a one-store edit", m.name)
		}
		mr = nextMR
		alias.InvalidateFlow(o, consumers...)
		if _, err := driver.SeedPassEnv(prog, opts, o, mr); err != nil {
			return err
		}
	}
	for metric, span := range map[string]string{
		"tbaa.module_edit.ms": "tbaa.module_edit", "tbaa.apply_edit.ms": "tbaa.apply_edit",
		"ir.extend.ms": "ir.extend", "alias.update.ms": "alias.update", "modref.update.ms": "modref.update",
	} {
		r.setMS(tr, metric, span)
	}
	return nil
}

// parseProcDecl parses one PROCEDURE declaration the way the facade
// does, as the only declaration of a wrapper module.
func parseProcDecl(file, src string) (*ast.ProcDecl, error) {
	m, err := parser.Parse(file, "MODULE EditM3; "+src+" BEGIN END EditM3.")
	if err != nil {
		return nil, err
	}
	if len(m.Decls) != 1 {
		return nil, fmt.Errorf("edit source must be one declaration")
	}
	pd, ok := m.Decls[0].(*ast.ProcDecl)
	if !ok {
		return nil, fmt.Errorf("edit source must be a PROCEDURE declaration")
	}
	return pd, nil
}

// ---------------------------------------------------------------------------
// Socket and load generator

// traceSocket measures the running daemon: closed-loop loopback
// latency for net.mayalias.us, then served slices like the timed run's
// for the tails and the load generator's health, and the fixed ladder
// for max_qps.
func (r *run) traceSocket(spec *servedSpec, mods []*module, mainDur time.Duration) error {
	s, _, err := startSession(r, spec, mods)
	if err != nil {
		return err
	}
	defer s.stop()
	s.picks = drawPicks(mods, r.rng, 1<<16)
	s.warmUp()
	c := newClient(1)
	var lat []float64
	for i := 0; i < tracedSingles; i++ {
		t0 := time.Now()
		err := s.single(c, i)
		r.attempted++
		if err != nil {
			r.fail(err)
			continue
		}
		lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
	}
	handler := r.out["server.mayalias.us"].Value
	r.set("net.mayalias.us", "us", median(lat)-handler, len(lat))
	s.connect(spec)
	var res servedResult
	for t0 := time.Now(); time.Since(t0) < mainDur; {
		servedSlice(s, spec, &res)
	}
	runLadder(s, spec, &res)
	r.account(res)
	r.tails(res)
	r.set("max_qps", "1/s", res.maxQPS, len(res.rungs))
	for _, rr := range res.rungs {
		fmt.Printf("ladder rate=%.0f achieved=%.1f p99_us=%.1f n=%d backlog_grew=%v pass=%v\n", rr.rate, rr.achieved, rr.p99, rr.n, rr.grew, rr.pass)
	}
	return nil
}

// gcStats is a reading of the runtime's GC counters.
type gcStats struct {
	cycles  uint64
	counts  []uint64  // GC pause histogram counts
	buckets []float64 // its bucket boundaries, seconds
}

var gcSamples = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/pauses/total/gc:seconds"}}

func readGC() gcStats {
	metrics.Read(gcSamples)
	// metrics.Read reuses the histogram's storage, so keep a copy.
	h := gcSamples[1].Value.Float64Histogram()
	return gcStats{cycles: gcSamples[0].Value.Uint64(), counts: append([]uint64(nil), h.Counts...), buckets: h.Buckets}
}

// pauseP99Since is the 99th percentile, in ms, of the GC pauses between
// g and later, read from the histogram buckets' upper bounds.
func (g gcStats) pauseP99Since(later gcStats) float64 {
	var total uint64
	counts := make([]uint64, len(later.counts))
	for i := range counts {
		counts[i] = later.counts[i] - g.counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total)*0.99 + 0.5)
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen >= rank {
			return later.buckets[i+1] * 1000
		}
	}
	return later.buckets[len(later.buckets)-1] * 1000
}
