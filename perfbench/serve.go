package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"tbaa/internal/server"
)

// servedSpec fixes the traffic of a served phase. Every number is a
// constant of the workload, so two commits see the same offered load.
type servedSpec struct {
	mods   func(*run) []*module // the uploaded corpus
	target string               // module whose procedure the edits rewrite
	// rate is the offered rate of the open read loop, requests per
	// second. Every batchEvery-th request is a 1024-pair batch instead
	// of a single query.
	rate       float64
	batchEvery int
	// reads is how long one served slice runs the open read loop.
	// editsAlone > 0 runs the closed loop of edits alone for that long
	// after it; 0 runs the edits beside the reads, on a connection of
	// their own.
	reads, editsAlone time.Duration
	// ladder is the traced run's search for max_qps, the highest offered
	// rate the daemon keeps up with: single-query rates tried in order
	// for rung each, stopping at the first rung whose p99 from the due
	// time reaches p99Limit or whose backlog grows. A rung must hold at
	// least 1000 queries for its p99 to count.
	ladder   []float64
	rung     time.Duration
	p99Limit time.Duration
}

// session is one daemon with its corpus uploaded and every served
// level built.
type session struct {
	d      *daemon // nil when the session talks to an in-process handler
	base   string
	mods   []*module
	target *module
	picks  []pick
	reads  *http.Client
	edits  *http.Client
	// readConns is how many read requests are in flight at most.
	readConns int
	// editMu serializes edits so generation gen0+k is always the state
	// after k edits; editN counts the edits applied.
	editMu sync.Mutex
	editN  int
}

// pick is one single query of the read stream: a module, a level and a
// pool pair, drawn by seed.
type pick struct{ mod, level, pair int }

// startSession starts tbaad, uploads the corpus and touches every
// module at every served level so no lazy build lands in a timed
// window. It returns the session and its wall time.
func startSession(r *run, spec *servedSpec, mods []*module) (*session, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(r.tbaad, r.path("daemon"))
	if err != nil {
		return nil, 0, err
	}
	s := newSession(d.base, mods, spec.target)
	s.d = d
	if err := s.upload(newClient(1), nil); err != nil {
		d.stop()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

func newSession(base string, mods []*module, target string) *session {
	return &session{base: base, mods: mods, target: findModule(mods, target)}
}

// upload sends every module and touches it at every served level,
// recording each module's first generation. Each upload runs inside a
// server.upload span when tr is non-nil.
func (s *session) upload(c *http.Client, tr *tracer) error {
	for i, m := range s.mods {
		var up server.UploadResponse
		id := tr.begin("server.upload", i)
		err := post(c, s.base+"/v1/modules", server.UploadRequest{File: m.name, Source: m.src}, &up)
		tr.end(id)
		if err != nil {
			return err
		}
		if up.Hash != m.hash {
			return fmt.Errorf("%s: daemon hash %s, want %s", m.name, up.Hash, m.hash)
		}
		m.gen0 = up.Generation
		for _, l := range servedLevels {
			var q server.QueryResponse
			req := server.QueryRequest{LevelRequest: server.LevelRequest{Level: levelName(l)}, P: m.pool[0].P, Q: m.pool[0].Q}
			if err := post(c, s.url(m, "mayalias"), req, &q); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *session) url(m *module, op string) string {
	return s.base + "/v1/modules/" + m.hash + "/" + op
}

func (s *session) stop() {
	if s != nil && s.d != nil {
		s.d.stop()
	}
}

// single sends read-stream query i and checks its verdict.
func (s *session) single(c *http.Client, i int) error {
	p := s.picks[i%len(s.picks)]
	m := s.mods[p.mod]
	pair := m.pool[p.pair]
	var q server.QueryResponse
	req := server.QueryRequest{LevelRequest: server.LevelRequest{Level: levelName(servedLevels[p.level])}, P: pair.P, Q: pair.Q}
	if err := post(c, s.url(m, "mayalias"), req, &q); err != nil {
		return err
	}
	if !m.check(p.level, q.Generation, p.pair, q.MayAlias) {
		return fmt.Errorf("%s %s: wrong verdict for (%s, %s) at generation %d", m.name, req.Level, pair.P, pair.Q, q.Generation)
	}
	return nil
}

// batch sends a 1024-pair batch drawn from pick i and checks every
// verdict.
func (s *session) batch(c *http.Client, i int) error {
	p := s.picks[i%len(s.picks)]
	m := s.mods[p.mod]
	pairs := m.batch(p.pair)
	req := server.BatchRequest{LevelRequest: server.LevelRequest{Level: levelName(servedLevels[p.level])}, Pairs: make([]server.PairJSON, len(pairs))}
	for k, pr := range pairs {
		req.Pairs[k] = server.PairJSON{P: pr.P, Q: pr.Q}
	}
	var resp server.BatchResponse
	if err := post(c, s.url(m, "mayalias-batch"), req, &resp); err != nil {
		return err
	}
	if len(resp.Verdicts) != len(pairs) {
		return fmt.Errorf("%s: batch answered %d of %d pairs", m.name, len(resp.Verdicts), len(pairs))
	}
	for k, v := range resp.Verdicts {
		if v.Error != "" || !m.check(p.level, resp.Generation, p.pair+k, v.MayAlias) {
			return fmt.Errorf("%s %s: wrong batch verdict for (%s, %s) at generation %d", m.name, req.Level, v.P, v.Q, resp.Generation)
		}
	}
	return nil
}

// edit applies the next edit of the target and checks that it
// published the expected generation.
func (s *session) edit(c *http.Client) error {
	s.editMu.Lock()
	defer s.editMu.Unlock()
	m := s.target
	k := s.editN + 1
	var resp server.EditResponse
	if err := post(c, s.url(m, "edit"), server.EditRequest{Source: m.edit.decl(k)}, &resp); err != nil {
		return err
	}
	s.editN = k
	if resp.Generation != m.gen0+uint64(k) || resp.Proc != m.edit.proc {
		return fmt.Errorf("%s: edit %d published generation %d of %s, want %d of %s", m.name, k, resp.Generation, resp.Proc, m.gen0+uint64(k), m.edit.proc)
	}
	return nil
}

// read performs read-stream request i: a batch or a single query.
func (s *session) read(spec *servedSpec, i int) (int, error) {
	if spec.batchEvery > 0 && i%spec.batchEvery == spec.batchEvery-1 {
		return kindBatch, s.batch(s.reads, i)
	}
	return kindSingle, s.single(s.reads, i)
}

// drawPicks draws the single-query schedule by seed.
func drawPicks(mods []*module, rng *rand.Rand, n int) []pick {
	out := make([]pick, n)
	for i := range out {
		out[i] = pick{mod: rng.Intn(len(mods)), level: rng.Intn(len(servedLevels)), pair: rng.Intn(poolSize)}
	}
	return out
}

// closedEdits runs edits back to back on their own connection until
// stop closes, recording each edit's latency in ms.
func (s *session) closedEdits(stop <-chan struct{}, res *servedResult) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		t0 := time.Now()
		res.edited++
		if err := s.edit(s.edits); err != nil {
			res.failedEdits++
			if len(res.editErrs) < 5 {
				res.editErrs = append(res.editErrs, err.Error())
			}
			continue
		}
		res.edits = append(res.edits, float64(time.Since(t0))/float64(time.Millisecond))
	}
}

// warmUp sends a few hundred untimed single queries so connection set-up
// and first-request costs stay out of the timed phases.
func (s *session) warmUp() {
	c := newClient(1)
	for i := 0; i < 300; i++ {
		s.single(c, len(s.picks)-1-i)
	}
	c.CloseIdleConnections()
}

// servedResult is what a served phase measured.
type servedResult struct {
	main loopResult
	// edits holds the latencies in ms of the closed edit loop, which
	// attempted edited edits and failed failedEdits of them.
	edits               []float64
	edited, failedEdits int
	maxQPS              float64
	rungs               []rungResult
	// errs and editErrs keep the first failures of the ladder and of
	// the closed edit loop.
	errs, editErrs []string
}

type rungResult struct {
	rate, achieved, p99 float64
	n, sent, failed     int
	grew, pass          bool
}

// connect opens the session's keep-alive connections: the read loop
// takes every core, less one when the edits run beside it.
func (s *session) connect(spec *servedSpec) {
	readConns := nproc()
	if spec.editsAlone == 0 {
		readConns = max(1, nproc()-1)
	}
	s.readConns = readConns
	s.reads, s.edits = newClient(readConns), newClient(1)
}

// servedSlice runs one slice of the served traffic and adds what it
// measured to res: the open read loop for spec.reads, with the closed
// edit loop beside it or after it.
func servedSlice(s *session, spec *servedSpec, res *servedResult) {
	edits := func(during func()) {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			s.closedEdits(stop, res)
		}()
		during()
		close(stop)
		<-done
	}
	reads := func() {
		lr := openLoop(spec.rate, spec.reads, s.readConns, func(i int) (int, error) { return s.read(spec, i) })
		res.main.add(lr)
	}
	if spec.editsAlone == 0 {
		edits(reads)
	} else {
		reads()
		edits(func() { time.Sleep(spec.editsAlone) })
	}
}

// runLadder steps through the fixed ladder of offered rates, with no
// edits running, and sets res.maxQPS to the highest rung that passed.
func runLadder(s *session, spec *servedSpec, res *servedResult) {
	for _, rate := range spec.ladder {
		t0 := time.Now()
		lr := openLoop(rate, spec.rung, s.readConns, func(i int) (int, error) { return kindSingle, s.single(s.reads, i) })
		wall := time.Since(t0).Seconds()
		rr := rungResult{rate: rate, n: len(lr.lat[kindSingle]), sent: lr.sent, failed: lr.failed, grew: lr.grew}
		res.errs = append(res.errs, lr.errs...)
		rr.achieved = float64(rr.n) / wall
		p99, ok := percentile(lr.lat[kindSingle], 0.99)
		rr.p99 = p99
		rr.pass = ok && lr.failed == 0 && lr.missed == 0 && !rr.grew && p99 < float64(spec.p99Limit/time.Microsecond)
		res.rungs = append(res.rungs, rr)
		if !rr.pass {
			break
		}
		res.maxQPS = rate
	}
}
