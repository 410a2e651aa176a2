package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request kinds of the read stream.
const (
	kindSingle = iota
	kindBatch
	numKinds
)

// maxOverrun is how long past its end a phase may keep sending the
// requests that fell due during it. A stalled host or server puts the
// generator behind; the requests are still sent, late, so the backlog
// shows in the latency from the due time. Requests still unsent once
// the overrun is spent are skipped and count as missed: the server did
// not take them.
const maxOverrun = 10 * time.Second

// backlogGrowth is how much later the last quarter of a phase may run
// than its first quarter before the phase counts as falling behind.
const backlogGrowth = 5 * time.Millisecond

// loopResult is what one open-loop phase measured.
type loopResult struct {
	lat    [numKinds][]float64 // µs from the due time to the response, per kind
	svc    [numKinds][]float64 // µs from the send to the response, per kind
	late   []float64           // ms from the due time to the send, in due order
	sent   int
	failed int
	missed int
	grew   bool // lateness rose by more than backlogGrowth over the phase
	errs   []string
}

// add appends the samples and counts of another phase to l.
func (l *loopResult) add(o loopResult) {
	for k := range l.lat {
		l.lat[k] = append(l.lat[k], o.lat[k]...)
		l.svc[k] = append(l.svc[k], o.svc[k]...)
	}
	l.late = append(l.late, o.late...)
	l.sent += o.sent
	l.failed += o.failed
	l.missed += o.missed
	l.grew = l.grew || o.grew
	for _, e := range o.errs {
		if len(l.errs) < 5 {
			l.errs = append(l.errs, e)
		}
	}
}

// openLoop sends requests on a fixed schedule: request i is due at
// start + i/rate whatever happened to earlier ones, so a stall shows as
// latency on every request due during it. workers is the number of
// requests in flight at most (one keep-alive connection each). do
// performs request i and reports its kind.
func openLoop(rate float64, dur time.Duration, workers int, do func(i int) (int, error)) loopResult {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	end := start.Add(dur)
	var next atomic.Int64
	type rec struct {
		i       int
		kind    int
		lat     time.Duration
		svc     time.Duration
		late    time.Duration
		err     error
		skipped bool
	}
	recs := make([][]rec, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lockPrecise()
			defer runtime.UnlockOSThread()
			for {
				i := int(next.Add(1) - 1)
				due := start.Add(time.Duration(i) * interval)
				if !due.Before(end) {
					return
				}
				if d := time.Until(due); d > 0 {
					sleepUntil(due)
				} else if time.Since(end) > maxOverrun {
					recs[w] = append(recs[w], rec{i: i, skipped: true})
					continue
				}
				sent := time.Now()
				kind, err := do(i)
				done := time.Now()
				recs[w] = append(recs[w], rec{i: i, kind: kind, lat: done.Sub(due), svc: done.Sub(sent), late: sent.Sub(due), err: err})
			}
		}(w)
	}
	wg.Wait()
	var all []rec
	for _, rs := range recs {
		all = append(all, rs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	var res loopResult
	for _, r := range all {
		if r.skipped {
			res.missed++
			continue
		}
		res.sent++
		res.late = append(res.late, float64(r.late)/float64(time.Millisecond))
		if r.err != nil {
			res.failed++
			if len(res.errs) < 5 {
				res.errs = append(res.errs, r.err.Error())
			}
			continue
		}
		res.lat[r.kind] = append(res.lat[r.kind], float64(r.lat)/float64(time.Microsecond))
		res.svc[r.kind] = append(res.svc[r.kind], float64(r.svc)/float64(time.Microsecond))
	}
	res.grew = backlogGrew(res.late)
	return res
}

// backlogGrew reports whether the last quarter of a phase ran later
// than its first quarter by more than backlogGrowth.
func backlogGrew(late []float64) bool {
	q := len(late) / 4
	if q == 0 {
		return false
	}
	first, last := median(late[:q]), median(late[len(late)-q:])
	return last-first > float64(backlogGrowth)/float64(time.Millisecond)
}
