package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tbaa"
	"tbaa/internal/server"
)

func TestPercentileSampleRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {99, 0.9, false}, {100, 0.9, true}, {1, 0.5, true},
	} {
		xs := make([]float64, c.n)
		if _, ok := percentile(xs, c.q); ok != c.want {
			t.Errorf("percentile of %d samples at %g: supported %v, want %v", c.n, c.q, ok, c.want)
		}
	}
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, _ := percentile(xs, 0.99); v != 990 {
		t.Errorf("p99 of 0..1000 = %g, want 990", v)
	}
	if v := median([]float64{3, 1, 2, 10}); v != 2.5 {
		t.Errorf("median = %g, want 2.5", v)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("median of no samples reported as supported")
	}
}

// TestDueTimeLatency stalls one request of an open loop: every request
// due during the stall must carry the wait in its latency, as it would
// for a user who sent it on time, and the generator must report that it
// ran late.
func TestDueTimeLatency(t *testing.T) {
	const stall = 100 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 20 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(1)
	res := openLoop(500, time.Second, 1, func(i int) (int, error) {
		resp, err := c.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		return kindSingle, err
	})
	if res.sent != 500 || res.failed != 0 || res.missed != 0 {
		t.Fatalf("sent %d failed %d missed %d, want 500 0 0", res.sent, res.failed, res.missed)
	}
	// Requests are due every 2ms, so about stall/2ms of them queue
	// behind the stalled one, the first waiting nearly the whole stall.
	var delayed int
	var worst float64
	for _, l := range res.lat[kindSingle] {
		if l > 20_000 {
			delayed++
		}
		worst = max(worst, l)
	}
	if worst < 90_000 {
		t.Errorf("worst latency %.0fµs, want at least the %v stall", worst, stall)
	}
	if delayed < 30 {
		t.Errorf("%d requests waited over 20ms, want the ~40 due during the stall", delayed)
	}
	if late := quantile(res.late, 1); late < 80 {
		t.Errorf("generator lateness peaked at %.1fms, want it to show the stall", late)
	}
	if res.grew {
		t.Error("one stall in mid-phase reported as a growing backlog")
	}
}

// TestBacklogGrows offers requests faster than the server answers
// them: the generator falls further behind as the phase goes on, which
// must fail a ladder rung.
func TestBacklogGrows(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(3 * time.Millisecond)
	}))
	defer srv.Close()
	c := newClient(1)
	res := openLoop(500, 500*time.Millisecond, 1, func(i int) (int, error) {
		resp, err := c.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		return kindSingle, err
	})
	if res.failed != 0 || res.missed != 0 {
		t.Fatalf("failed %d missed %d, want 0 0", res.failed, res.missed)
	}
	if !res.grew {
		t.Errorf("a server at 3ms per request under a 2ms schedule did not flag a growing backlog (lateness %.1fms to %.1fms)", res.late[0], res.late[len(res.late)-1])
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100), Alloc: 1000},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30), Alloc: 100},
		{Name: "b", Parent: 0, Start: ms(20), End: ms(50), Alloc: 200},
		{Name: "c", Parent: 0, Start: ms(60), End: ms(70), Alloc: 300},
		{Name: "d", Parent: 3, Start: ms(62), End: ms(66), Alloc: 50},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(50), ms(20), ms(30), ms(6), ms(4)}
	for i, w := range want {
		if self[i].Dur != w {
			t.Errorf("%s self time %v, want %v", spans[i].Name, self[i].Dur, w)
		}
	}
	if self[0].Alloc != 400 || self[3].Alloc != 250 {
		t.Errorf("self alloc root %d c %d, want 400 250", self[0].Alloc, self[3].Alloc)
	}

	tr := newTracer()
	tr.do("outer", 1, func() {
		tr.do("inner", 1, func() { time.Sleep(5 * time.Millisecond) })
		tr.do("inner", 1, func() { time.Sleep(5 * time.Millisecond) })
	})
	inner, n := medianSelf(tr, "inner")
	if n != 1 || inner < 10 {
		t.Errorf("inner spans of one operation sum to %.1fms over %d operations, want >= 10ms over 1", inner, n)
	}
	if outer, _ := medianSelf(tr, "outer"); outer > inner/2 {
		t.Errorf("outer self time %.1fms should exclude its children", outer)
	}
}

// TestFlippedVerdictFails feeds the checker a served verdict that
// contradicts the reference; the request must count as failed.
func TestFlippedVerdictFails(t *testing.T) {
	m := &module{name: "t.m3", hash: "h", pool: []tbaa.Pair{{P: "a.f", Q: "b.g"}}, gen0: 7}
	m.ref[0] = [][]bool{{true}, {false}}
	if !m.check(0, 7, 0, true) || !m.check(1, 7, 0, false) {
		t.Fatal("matching verdicts rejected")
	}
	if m.check(0, 7, 0, false) || m.check(1, 7, 0, true) {
		t.Fatal("flipped verdict accepted")
	}
	var flip atomic.Bool
	flip.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.QueryResponse{MayAlias: !flip.Load(), Generation: 7})
	}))
	defer srv.Close()
	s := newSession(srv.URL, []*module{m}, "")
	s.picks = []pick{{mod: 0, level: 0, pair: 0}}
	s.reads = newClient(1)
	res := openLoop(200, 100*time.Millisecond, 1, func(i int) (int, error) { return kindSingle, s.single(s.reads, i) })
	if res.sent == 0 || res.failed != res.sent {
		t.Errorf("%d of %d flipped verdicts counted as failures", res.failed, res.sent)
	}
	flip.Store(false)
	if err := s.single(s.reads, 0); err != nil {
		t.Errorf("correct verdict rejected: %v", err)
	}
}
