package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tbaa"
	"tbaa/internal/metrics"
)

// srcModule builds a small distinct module per index: each has fields
// i and next on a two-type hierarchy, so it compiles, has access
// paths, and hashes uniquely.
func srcModule(i int) (file, src string) {
	name := fmt.Sprintf("M%d", i)
	return name + ".m3", fmt.Sprintf(`MODULE %s;
TYPE
  T = OBJECT i: INTEGER; next: T END;
  S = T OBJECT j: INTEGER END;
VAR x: T; y: S; sum: INTEGER;
BEGIN
  x := NEW(T);
  y := NEW(S);
  x.i := %d;
  y.j := 2;
  sum := x.i + y.j
END %s.
`, name, i, name)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts v and decodes the response body into out (when
// non-nil), returning the status code.
func postJSON(t *testing.T, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response (status %d): %v", url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

func upload(t *testing.T, base, file, src string) UploadResponse {
	t.Helper()
	var resp UploadResponse
	status := postJSON(t, base+"/v1/modules", UploadRequest{File: file, Source: src}, &resp)
	if status != http.StatusCreated && status != http.StatusOK {
		t.Fatalf("upload %s: status %d", file, status)
	}
	return resp
}

// analyzerPaths returns some access-path names of a module via the
// in-process API, for building query vectors.
func analyzerPaths(t *testing.T, file, src string) (*tbaa.Analyzer, []string) {
	t.Helper()
	a, err := tbaa.New(file, src)
	if err != nil {
		t.Fatal(err)
	}
	names := a.Paths()
	if len(names) < 2 {
		t.Fatalf("%s: too few access paths (%d)", file, len(names))
	}
	return a, names
}

// allPairs builds every ordered pair over the names.
func allPairs(names []string) []PairJSON {
	var out []PairJSON
	for _, p := range names {
		for _, q := range names {
			out = append(out, PairJSON{P: p, Q: q})
		}
	}
	return out
}

// TestUploadQueryLifecycle drives the primary path: upload a module,
// query it singly and in batch, and check every verdict equals the
// in-process Analyzer's answer.
func TestUploadQueryLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	file, src := srcModule(1)
	up := upload(t, ts.URL, file, src)
	if up.Hash != tbaa.ModuleHash(src) {
		t.Fatalf("upload hash %s != ModuleHash %s", up.Hash, tbaa.ModuleHash(src))
	}
	if up.Cached || up.Generation != 1 || up.Resident != 1 {
		t.Fatalf("first upload: %+v", up)
	}

	a, names := analyzerPaths(t, file, src)
	pairs := allPairs(names)

	// Single queries.
	for _, p := range pairs[:4] {
		var qr QueryResponse
		status := postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/mayalias", QueryRequest{P: p.P, Q: p.Q}, &qr)
		if status != http.StatusOK {
			t.Fatalf("mayalias %v: status %d", p, status)
		}
		want, err := a.MayAlias(p.P, p.Q)
		if err != nil {
			t.Fatal(err)
		}
		if qr.MayAlias != want {
			t.Fatalf("mayalias(%s, %s) = %v, in-process says %v", p.P, p.Q, qr.MayAlias, want)
		}
	}

	// The whole cross product as one batch.
	var br BatchResponse
	status := postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/mayalias-batch", BatchRequest{Pairs: pairs}, &br)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d", status)
	}
	if len(br.Verdicts) != len(pairs) {
		t.Fatalf("batch returned %d verdicts for %d pairs", len(br.Verdicts), len(pairs))
	}
	for i, v := range br.Verdicts {
		if v.Error != "" {
			t.Fatalf("verdict %d (%s, %s): %s", i, v.P, v.Q, v.Error)
		}
		want, err := a.MayAlias(v.P, v.Q)
		if err != nil {
			t.Fatal(err)
		}
		if v.MayAlias != want {
			t.Fatalf("batch verdict (%s, %s) = %v, in-process says %v", v.P, v.Q, v.MayAlias, want)
		}
	}
	if br.Stats.Queries == 0 || br.Stats.Batches == 0 {
		t.Fatalf("session stats not attached: %+v", br.Stats)
	}

	// CountPairs matches the in-process sweep.
	var cp CountPairsResponse
	if status := postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/countpairs", LevelRequest{}, &cp); status != http.StatusOK {
		t.Fatalf("countpairs: status %d", status)
	}
	want := a.CountPairs()
	if cp.References != want.References || cp.Local != want.Local || cp.Global != want.Global {
		t.Fatalf("countpairs = %+v, in-process says %+v", cp, want)
	}

	// Level selection: every parseable level answers.
	for _, lvl := range []string{"typedecl", "fieldtypedecl", "smfieldtyperefs", "fstyperefs", "iptyperefs"} {
		var qr QueryResponse
		req := QueryRequest{LevelRequest: LevelRequest{Level: lvl}, P: names[0], Q: names[1]}
		if status := postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/mayalias", req, &qr); status != http.StatusOK {
			t.Fatalf("mayalias at %s: status %d", lvl, status)
		}
	}

	// Counters moved.
	if s.Metrics().Queries.Load() == 0 || s.Metrics().Batches.Load() != 1 {
		t.Fatalf("registry counters: queries=%d batches=%d",
			s.Metrics().Queries.Load(), s.Metrics().Batches.Load())
	}
}

// TestUploadCachedAndReupload pins the cache-hit and generation-swap
// behavior: same bytes hit the cache, an explicit re-install bumps the
// generation.
func TestUploadCachedAndReupload(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	file, src := srcModule(2)
	up1 := upload(t, ts.URL, file, src)
	up2 := upload(t, ts.URL, file, src)
	if !up2.Cached || up2.Generation != up1.Generation {
		t.Fatalf("re-upload of same bytes should hit the cache: %+v", up2)
	}
	if got := s.Metrics().CacheHits.Load(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	// Different file name, same source: same hash, still cached.
	var resp UploadResponse
	postJSON(t, ts.URL+"/v1/modules", UploadRequest{File: "other.m3", Source: src}, &resp)
	if resp.Hash != up1.Hash || !resp.Cached {
		t.Fatalf("file name leaked into the cache key: %+v", resp)
	}
}

func TestUploadErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Syntax error → 422 with diagnostics.
	var er ErrorResponse
	status := postJSON(t, ts.URL+"/v1/modules", UploadRequest{File: "bad.m3", Source: "MODULE ???"}, &er)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bad module: status %d, want 422", status)
	}
	if er.Error == "" || len(er.Diagnostics) == 0 {
		t.Fatalf("bad module: want diagnostics, got %+v", er)
	}
	// Malformed body → 400.
	resp, err := http.Post(ts.URL+"/v1/modules", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	file, src := srcModule(3)
	up := upload(t, ts.URL, file, src)

	// Unknown hash → 404.
	var er ErrorResponse
	if status := postJSON(t, ts.URL+"/v1/modules/deadbeef/mayalias", QueryRequest{P: "x.i", Q: "y.j"}, &er); status != http.StatusNotFound {
		t.Fatalf("unknown hash: status %d, want 404", status)
	}
	// Unknown access path → 400.
	if status := postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/mayalias", QueryRequest{P: "no.such", Q: "x.i"}, &er); status != http.StatusBadRequest {
		t.Fatalf("unknown path: status %d, want 400", status)
	}
	// Unknown level → 400.
	req := QueryRequest{LevelRequest: LevelRequest{Level: "bogus"}, P: "x.i", Q: "x.i"}
	if status := postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/mayalias", req, &er); status != http.StatusBadRequest {
		t.Fatalf("unknown level: status %d, want 400", status)
	}
	// Unknown path inside a batch: per-verdict error, 200 overall.
	var br BatchResponse
	breq := BatchRequest{Pairs: []PairJSON{{P: "no.such", Q: "x.i"}}}
	if status := postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/mayalias-batch", breq, &br); status != http.StatusOK {
		t.Fatalf("batch with bad path: status %d, want 200", status)
	}
	if br.Verdicts[0].Error == "" {
		t.Fatal("batch verdict for unknown path should carry an error")
	}
}

// TestLRUEviction uploads more modules than fit and checks the
// least-recently-used is evicted, the survivors stay queryable, and
// the evicted hash answers 404 until re-uploaded.
func TestLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxModules: 2})
	var ups []UploadResponse
	var srcs []string
	for i := 10; i < 13; i++ {
		file, src := srcModule(i)
		ups = append(ups, upload(t, ts.URL, file, src))
		srcs = append(srcs, src)
	}
	if got := s.Metrics().Evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := s.Metrics().Resident.Load(); got != 2 {
		t.Fatalf("resident = %d, want 2", got)
	}
	// The first (least recently used) module is gone.
	var er ErrorResponse
	if status := postJSON(t, ts.URL+"/v1/modules/"+ups[0].Hash+"/mayalias", QueryRequest{P: "x.i", Q: "x.i"}, &er); status != http.StatusNotFound {
		t.Fatalf("evicted module: status %d, want 404", status)
	}
	// The newer two still answer.
	for _, up := range ups[1:] {
		var qr QueryResponse
		if status := postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/mayalias", QueryRequest{P: "x.i", Q: "x.i"}, &qr); status != http.StatusOK {
			t.Fatalf("resident module %s: status %d", up.Hash, status)
		}
	}
	// Re-uploading the evicted source recompiles and evicts the next LRU.
	re := upload(t, ts.URL, "M10.m3", srcs[0])
	if re.Cached || re.Generation != 1 {
		t.Fatalf("re-upload after eviction should compile fresh: %+v", re)
	}
	if got := s.Metrics().Evictions.Load(); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	// Querying a module refreshes its recency: touch the oldest
	// resident, upload a new one, and the untouched module is the victim.
	rows := s.cache.list()
	oldest := rows[len(rows)-1].Hash
	var qr QueryResponse
	postJSON(t, ts.URL+"/v1/modules/"+oldest+"/mayalias", QueryRequest{P: "x.i", Q: "x.i"}, &qr)
	file, src := srcModule(14)
	upload(t, ts.URL, file, src)
	for _, m := range s.cache.list() {
		if m.Hash == oldest {
			return // survived, as recency demands
		}
	}
	t.Fatal("recently queried module was evicted instead of the stale one")
}

// TestBatchShedding pins the 429 on over-limit batches.
func TestBatchShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 4})
	file, src := srcModule(20)
	up := upload(t, ts.URL, file, src)
	big := BatchRequest{Pairs: make([]PairJSON, 5)}
	for i := range big.Pairs {
		big.Pairs[i] = PairJSON{P: "x.i", Q: "x.i"}
	}
	var er ErrorResponse
	if status := postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/mayalias-batch", big, &er); status != http.StatusTooManyRequests {
		t.Fatalf("oversize batch: status %d, want 429", status)
	}
	if s.Metrics().ShedBatch.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.Metrics().ShedBatch.Load())
	}
	// At the limit exactly: served.
	ok := BatchRequest{Pairs: big.Pairs[:4]}
	var br BatchResponse
	if status := postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/mayalias-batch", ok, &br); status != http.StatusOK {
		t.Fatalf("at-limit batch: status %d, want 200", status)
	}
}

// TestInflightShedding saturates the in-flight cap with slow uploads
// and checks the excess request is shed with 503 + Retry-After.
func TestInflightShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	// Hold the single slot with an upload whose body never finishes
	// arriving until we let it.
	pr, pw := newBlockedBody()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/modules", pr)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait until the slot is actually held.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.inflight) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/modules", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if s.Metrics().ShedInflight.Load() != 1 {
		t.Fatalf("inflight shed counter = %d, want 1", s.Metrics().ShedInflight.Load())
	}
	pw.release()
	<-done
}

// blockedBody is a request body that stalls until released, for
// holding a request slot open.
type blockedBody struct{ ch chan struct{} }

func newBlockedBody() (*blockedBody, *blockedBody) {
	b := &blockedBody{ch: make(chan struct{})}
	return b, b
}

func (b *blockedBody) Read(p []byte) (int, error) {
	<-b.ch
	return 0, context.Canceled
}
func (b *blockedBody) Close() error { return nil }
func (b *blockedBody) release()     { close(b.ch) }

// TestMetricsEndpoint scrapes /metrics after traffic and checks the
// shared-vocabulary series are present with moving values.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	file, src := srcModule(30)
	up := upload(t, ts.URL, file, src)
	var qr QueryResponse
	postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/mayalias", QueryRequest{P: "x.i", Q: "y.j"}, &qr)
	var br BatchResponse
	postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/mayalias-batch",
		BatchRequest{Pairs: []PairJSON{{P: "x.i", Q: "x.i"}}}, &br)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"tbaad_queries_total 2",
		"tbaad_modules_resident 1",
		"tbaad_cache_misses_total 1",
		fmt.Sprintf("tbaad_query_duration_ns_count{op=%q} 1", metrics.OpMayAlias),
		fmt.Sprintf("tbaad_query_duration_ns_count{op=%q} 1", metrics.OpMayAliasBatch),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
	// Health endpoint answers.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", hr.StatusCode)
	}
}

// TestRequestTimeout pins the 504 on a batch that cannot finish inside
// the request timeout. The timeout is enforced through context between
// pairs, so an absurdly small timeout with a large batch trips it.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	file, src := srcModule(31)
	up := upload(t, ts.URL, file, src)
	_, names := analyzerPaths(t, file, src)
	pairs := make([]PairJSON, 2048)
	for i := range pairs {
		pairs[i] = PairJSON{P: names[i%len(names)], Q: names[(i+1)%len(names)]}
	}
	var er ErrorResponse
	status := postJSON(t, ts.URL+"/v1/modules/"+up.Hash+"/mayalias-batch", BatchRequest{Pairs: pairs}, &er)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out batch: status %d, want 504", status)
	}
}

// TestSessionCountsMatchRegistry drives single queries, batches (one
// with an unknown path) and one timed-out batch at one module, then
// requires the batch stats, the /v1/modules row and /metrics to report
// the same totals: answered verdicts count wherever they were answered,
// and a batch counts only when it is answered.
func TestSessionCountsMatchRegistry(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	// Requests are served in the test goroutine, so the request timeout
	// can be lowered for one batch and restored without a data race.
	do := func(method, path string, body, out any) int {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
		if out != nil {
			if err := json.NewDecoder(rec.Body).Decode(out); err != nil {
				t.Fatalf("%s %s: decoding status %d response: %v", method, path, rec.Code, err)
			}
		}
		return rec.Code
	}
	file, src := srcModule(50)
	var up UploadResponse
	if status := do("POST", "/v1/modules", UploadRequest{File: file, Source: src}, &up); status != http.StatusCreated {
		t.Fatalf("upload: status %d", status)
	}
	base := "/v1/modules/" + up.Hash
	_, names := analyzerPaths(t, file, src)
	for _, q := range names {
		if status := do("POST", base+"/mayalias", QueryRequest{P: names[0], Q: q}, &QueryResponse{}); status != http.StatusOK {
			t.Fatalf("mayalias: status %d", status)
		}
	}

	s.cfg.RequestTimeout = time.Nanosecond
	slow := make([]PairJSON, 2048)
	for i := range slow {
		slow[i] = PairJSON{P: names[i%len(names)], Q: names[(i+1)%len(names)]}
	}
	if status := do("POST", base+"/mayalias-batch", BatchRequest{Pairs: slow}, &ErrorResponse{}); status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out batch: status %d, want 504", status)
	}
	s.cfg.RequestTimeout = DefaultRequestTimeout

	var br BatchResponse
	for _, pairs := range [][]PairJSON{
		append(allPairs(names), PairJSON{P: "no.such", Q: names[0]}),
		allPairs(names),
	} {
		if status := do("POST", base+"/mayalias-batch", BatchRequest{Pairs: pairs}, &br); status != http.StatusOK {
			t.Fatalf("batch: status %d", status)
		}
	}
	if br.Stats.Batches != 2 {
		t.Errorf("session batches = %d, want 2: the timed-out batch must not count", br.Stats.Batches)
	}

	var mr ModulesResponse
	if status := do("GET", "/v1/modules", nil, &mr); status != http.StatusOK || len(mr.Modules) != 1 {
		t.Fatalf("listing: status %d, %d modules", status, len(mr.Modules))
	}
	row := mr.Modules[0]
	if row.Queries != br.Stats.Queries || row.Batches != br.Stats.Batches {
		t.Errorf("/v1/modules reports queries=%d batches=%d, batch stats %+v", row.Queries, row.Batches, br.Stats)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		fmt.Sprintf("tbaad_queries_total %d\n", br.Stats.Queries),
		fmt.Sprintf("tbaad_aliased_total %d\n", br.Stats.Aliased),
		fmt.Sprintf("tbaad_batches_total %d\n", br.Stats.Batches),
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics disagrees with batch stats %+v: missing %q", br.Stats, want)
		}
	}
}

// TestModulesListing checks GET /v1/modules reflects recency order and
// session counters.
func TestModulesListing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fileA, srcA := srcModule(40)
	fileB, srcB := srcModule(41)
	upA := upload(t, ts.URL, fileA, srcA)
	upB := upload(t, ts.URL, fileB, srcB)
	var qr QueryResponse
	postJSON(t, ts.URL+"/v1/modules/"+upA.Hash+"/mayalias", QueryRequest{P: "x.i", Q: "x.i"}, &qr)

	var mr ModulesResponse
	resp, err := http.Get(ts.URL + "/v1/modules")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Modules) != 2 {
		t.Fatalf("listing has %d modules, want 2", len(mr.Modules))
	}
	// A was queried after B's upload, so A is most recent.
	if mr.Modules[0].Hash != upA.Hash || mr.Modules[1].Hash != upB.Hash {
		t.Fatalf("listing order %s, %s; want %s, %s",
			mr.Modules[0].Hash, mr.Modules[1].Hash, upA.Hash, upB.Hash)
	}
	if mr.Modules[0].Queries != 1 {
		t.Fatalf("module A session queries = %d, want 1", mr.Modules[0].Queries)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
