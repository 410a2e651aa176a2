// Command perfbench is the repository benchmark: it times the paths a
// user of tbaa sees end to end — a served may-alias query, a cold
// build, an optimizing build, a warm start from an artifact, a
// CountPairs sweep and a one-procedure edit — checks every verdict it
// is given against a from-scratch reference, and with -trace 1 breaks
// the same paths down into per-layer metrics.
//
//	bash perfbench/run.sh --workload serve-stock --seed 1 --seconds 30 --trace 0
//
// run.sh builds this command and cmd/tbaad from the checkout it is run
// in. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workload is one traffic mix. Every workload reports every end-to-end
// metric. A timed run is a sequence of rounds, each of which spends
// buildSlice on build iterations (at least one) and then runs one
// served slice, so that every metric samples the whole run and a stall
// of the host shorter than half the run cannot move a median far.
type workload struct {
	served     *servedSpec
	build      func(*run) []*module
	buildSlice time.Duration
}

// The offered read rates are constants, set well under capacity so the
// timed latency is service time rather than queueing: serve-stock's
// 1500/s is about a fifth of the max_qps its traced run's ladder
// measured at the commit that added it, on a 2-core x86-64 machine
// (7629/s), and scale-100k's 400/s about a tenth of the 100k-line
// module's (3797/s, with the edits stopped; the edits take one of the
// two cores while the reads run). The share of batches in the read
// stream is assumed, not taken from observed traffic.

// stockServed is the served traffic over the ten Table 4 programs: per
// round, an open loop of single queries with a 1024-pair batch every
// 150th request, then edits of m3cg back to back, alone.
var stockServed = servedSpec{
	mods: stockMods, target: "m3cg.m3",
	rate: 1500, batchEvery: 150, reads: 2 * time.Second, editsAlone: 400 * time.Millisecond,
	ladder: []float64{2000, 2500, 3125, 3906, 4883, 6104, 7629, 9537, 11921}, rung: 750 * time.Millisecond,
	p99Limit: 50 * time.Millisecond,
}

var workloads = map[string]*workload{
	// Served queries over the ten Table 4 programs: HTTP, JSON and
	// by-name resolution dominate; the build layers only build the same
	// small programs, and the edits rewrite one procedure of a small
	// module.
	"serve-stock": {served: &stockServed, build: stockMods, buildSlice: 400 * time.Millisecond},
	// One generated 100k-line module: cold, optimizing and warm builds
	// plus CountPairs, where the frontend, lowering, alias build,
	// mod-ref, RLE and artifact decode do the work; then one-procedure
	// edits back to back with an open loop of single queries (and a
	// batch every 40th request) beside them, the delta path (ExtendAPs,
	// alias.Update, modref.Update, snapshot republish) against readers.
	"scale-100k": {
		served: &servedSpec{
			mods: scaleMods, rate: 400, batchEvery: 40, reads: 3 * time.Second,
			ladder: []float64{750, 1125, 1688, 2531, 3797, 5695}, rung: 1500 * time.Millisecond,
			p99Limit: 100 * time.Millisecond,
		},
		build: scaleMods,
	},
}

// run is one invocation of the benchmark.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tbaad    string
	workdir  string
	rng      *rand.Rand
	t0       time.Time

	stock []*module
	scale []*module

	attempted, failed int
	errs              []string
	out               map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

func stockMods(r *run) []*module {
	if r.stock == nil {
		r.stock = stockCorpus()
	}
	return r.stock
}

func scaleMods(r *run) []*module {
	if r.scale == nil {
		r.scale = []*module{scaleModule(scaleSeed)}
	}
	return r.scale
}

// logf prints a progress line with the time since the run began.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs %s\n", time.Since(r.t0).Seconds(), fmt.Sprintf(format, args...))
}

func (r *run) path(name string) string { return filepath.Join(r.workdir, name) }

// fail counts one failed operation.
func (r *run) fail(err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

// set records a metric with the sample count behind it.
func (r *run) set(name, unit string, v float64, n int) {
	r.out[name] = metric{Value: v, Unit: unit, n: n}
}

// setPct records a percentile of xs scaled by scale, failing the run
// when xs is too small to support it.
func (r *run) setPct(name, unit string, xs []float64, q, scale float64) {
	v, ok := percentile(xs, q)
	if !ok {
		r.fail(fmt.Errorf("%s: %d samples do not support the %g quantile", name, len(xs), q))
		v = 0
	}
	r.set(name, unit, v*scale, len(xs))
}

func nproc() int { return runtime.GOMAXPROCS(0) }

func main() {
	var r run
	flag.StringVar(&r.workload, "workload", "", "workload `name`")
	flag.Int64Var(&r.seed, "seed", 1, "input seed")
	flag.Float64Var(&r.seconds, "seconds", 30, "measured `seconds` per run")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&r.tbaad, "tbaad", "", "tbaad `binary`")
	flag.StringVar(&r.workdir, "workdir", ".bench_build/run", "scratch `dir` inside the checkout")
	flag.Parse()
	r.trace = *traceFlag == 1
	w, ok := workloads[r.workload]
	if !ok || r.tbaad == "" || r.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -tbaad and -workload one of %v\n", workloadNames())
		os.Exit(2)
	}
	r.workdir = filepath.Join(r.workdir, fmt.Sprintf("%s-%d-%d", r.workload, r.seed, os.Getpid()))
	r.rng = rand.New(rand.NewSource(r.seed))
	r.t0 = time.Now()
	r.out = map[string]metric{}
	start := time.Now()
	err := r.exec(w)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d finished in %.1fs\n", r.workload, r.seed, time.Since(start).Seconds())
	os.RemoveAll(r.workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.report()
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// exec prepares the inputs and runs the workload, timed or traced.
func (r *run) exec(w *workload) error {
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return err
	}
	served := w.served.mods(r)
	target := findModule(served, w.served.target)
	if target == nil {
		target = served[0]
	}
	if err := chooseEdit(target, r.rng); err != nil {
		return err
	}
	w.served.target = target.name
	var buildMods []*module
	if w.build != nil {
		buildMods = w.build(r)
	}
	for _, m := range append(append([]*module(nil), served...), buildMods...) {
		if m.pool == nil {
			if err := m.prepare(r.rng); err != nil {
				return err
			}
		}
	}
	r.logf("inputs and references ready")
	if r.trace {
		return r.traced(w, served, buildMods)
	}
	return r.timed(w, served, buildMods)
}

// A run sets each part of the system up at least minSetups times, and
// keeps going up to maxSetups while that part's set-ups have taken
// under setupTime; setup_s sums the parts' medians. Cheap set-ups are
// repeated more, as they are noisier.
const (
	minSetups = 3
	maxSetups = 9
	setupTime = 2 * time.Second
)

// repeatSetup runs setup as often as the constants above ask and
// returns the median of its times.
func repeatSetup(setup func(k int) (time.Duration, error)) (float64, int, error) {
	var xs []float64
	t0 := time.Now()
	for k := 0; k < minSetups || k < maxSetups && time.Since(t0) < setupTime; k++ {
		d, err := setup(k)
		if err != nil {
			return 0, 0, err
		}
		xs = append(xs, d.Seconds())
	}
	return median(xs), len(xs), nil
}

// minRounds is the fewest measured rounds a timed run makes.
const minRounds = 3

// timed is the untraced run that yields the end-to-end metrics. After
// the set-up, one untimed round warms up the builds (its build
// iteration also checks the optimized program's output) and the
// daemon; then rounds run until the budget is spent. Every round starts
// with the memory of the one before handed back to the system, so that
// no collection or background scavenging of the build garbage lands in
// a served slice.
func (r *run) timed(w *workload, served, buildMods []*module) error {
	bms, err := compileBuildMods(buildMods)
	if err != nil {
		return err
	}
	debug.FreeOSMemory()
	seed, nSeed, err := repeatSetup(func(k int) (time.Duration, error) {
		return seedArtifacts(bms, r.path(fmt.Sprintf("artifacts-%d", k)))
	})
	if err != nil {
		return err
	}
	debug.FreeOSMemory()
	var s *session
	defer func() { s.stop() }()
	daemon, nDaemon, err := repeatSetup(func(k int) (time.Duration, error) {
		s.stop()
		var d time.Duration
		var err error
		s, d, err = startSession(r, w.served, served)
		return d, err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", "s", seed+daemon, min(nSeed, nDaemon))
	r.logf("set-up done")

	s.picks = drawPicks(served, r.rng, 1<<16)
	s.connect(w.served)
	s.warmUp()
	it := 0
	r.buildIterations(bms, &it, 0)
	budget := time.Duration(r.seconds * float64(time.Second))
	var samples []buildSample
	var res servedResult
	t0 := time.Now()
	rounds := 0
	// The last round is the one that ends nearest the budget.
	var last time.Duration
	for ; rounds < minRounds || time.Since(t0)+last/2 < budget; rounds++ {
		rt := time.Now()
		samples = append(samples, r.buildIterations(bms, &it, w.buildSlice)...)
		runtime.GC()
		servedSlice(s, w.served, &res)
		last = time.Since(rt)
	}
	r.logf("%d rounds: %d build samples, %d reads, %d edits", rounds, len(samples), res.main.sent, res.edited)
	r.setBuildMetrics(samples)
	r.servedMetrics(res)
	return nil
}

// buildIterations runs build iterations until slice is spent, at least
// one. *it counts iterations over the run: the first (it == 0) is the
// untimed warm-up, which also checks the optimized program's output,
// and the order of cold and opt alternates across the run.
func (r *run) buildIterations(bms []*buildMod, it *int, slice time.Duration) []buildSample {
	var out []buildSample
	t0 := time.Now()
	for k := 0; k == 0 || time.Since(t0) < slice; k++ {
		s, err := buildIteration(bms, *it%2 == 0, *it == 0)
		*it++
		r.attempted += 4 * len(bms)
		if err != nil {
			r.fail(err)
			continue
		}
		out = append(out, s)
	}
	return out
}

func (r *run) setBuildMetrics(samples []buildSample) {
	pick := func(f func(buildSample) float64) []float64 {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, f(s))
		}
		return xs
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	r.setPct("cold_build_ms", "ms", pick(func(s buildSample) float64 { return ms(s.cold) }), 0.5, 1)
	r.setPct("opt_build_ms", "ms", pick(func(s buildSample) float64 { return ms(s.opt) }), 0.5, 1)
	var warm []float64
	for _, s := range samples {
		for _, d := range s.warm {
			warm = append(warm, ms(d))
		}
	}
	r.setPct("warm_start_ms", "ms", warm, 0.5, 1)
	r.setPct("countpairs_ms", "ms", pick(func(s buildSample) float64 { return ms(s.countpairs) }), 0.5, 1)
	r.setPct("analyzer_heap_mb", "MB", pick(func(s buildSample) float64 { return s.heapMB }), 0.5, 1)
}

// account counts a served phase's attempts and failures.
func (r *run) account(res servedResult) {
	m := res.main
	r.attempted += m.sent + m.missed
	r.failed += m.failed + m.missed
	for _, rr := range res.rungs {
		r.attempted += rr.sent
		r.failed += rr.failed
	}
	r.attempted += res.edited
	r.failed += res.failedEdits
	for _, e := range append(append(m.errs, res.errs...), res.editErrs...) {
		if len(r.errs) < 10 {
			r.errs = append(r.errs, e)
		}
	}
}

func (r *run) servedMetrics(res servedResult) {
	r.account(res)
	m := res.main
	r.setPct("query_us.p50", "us", m.svc[kindSingle], 0.5, 1)
	r.setPct("batch_ms.p50", "ms", m.svc[kindBatch], 0.5, 1e-3)
	r.setPct("edit_ms.p50", "ms", res.edits, 0.5, 1)
	r.tails(res)
}

// tails records the served tails, where the samples support them.
// They are per-layer metrics: a run reports them without counting a
// short phase's too-small sample as a failure.
func (r *run) tails(res servedResult) {
	for _, t := range []struct {
		name, unit string
		xs         []float64
		q, scale   float64
	}{
		{"query_us.p90", "us", res.main.svc[kindSingle], 0.9, 1},
		{"query_us.p99", "us", res.main.svc[kindSingle], 0.99, 1},
		{"loadgen.due_us.p99", "us", res.main.lat[kindSingle], 0.99, 1},
		{"loadgen.late_ms.p99", "ms", res.main.late, 0.99, 1},
		{"edit_ms.p90", "ms", res.edits, 0.9, 1},
	} {
		if v, ok := percentile(t.xs, t.q); ok {
			r.set(t.name, t.unit, v*t.scale, len(t.xs))
		}
	}
	r.set("loadgen.sent", "count", float64(res.main.sent), 1)
}

// report prints a readable table with sample counts, then the result
// object as the last line. A metric the run should report but did not
// measure counts as a failure.
func (r *run) report() {
	names := make([]string, 0, len(r.out))
	for n := range r.out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.out[n]
		fmt.Printf("%-28s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.n)
	}
	metrics := map[string]metric{}
	for _, n := range r.want() {
		m, ok := r.out[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail(fmt.Errorf("%s was not measured", n))
			m.Value = 0
		}
		metrics[n] = m
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "failure:", e)
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, metrics})
	fmt.Println(string(b))
}
