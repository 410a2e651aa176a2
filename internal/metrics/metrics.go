// Package metrics is the one shared definition of the query-cost
// vocabulary: the operation names and latency quantiles the analysis
// server's /metrics endpoint reports. The committed benchmark
// (perfbench) times the same operations end to end and per layer.
//
// A Registry is the server-side half: lock-cheap counters for query
// traffic, the module cache, and load shedding, plus one latency
// histogram per query op, rendered in Prometheus text exposition
// format by WritePrometheus.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// The query operations, under exactly these names: the `op` label of
// the server's tbaad_query_duration_ns summary.
const (
	OpMayAlias      = "MayAlias"
	OpMayAliasBatch = "MayAliasBatch"
	OpCountPairs    = "CountPairs"
	// OpRebuildOneProc is the incremental re-analysis after a
	// one-procedure edit: re-lower the procedure, rebuild the analyses
	// from its dirty set, and publish the refreshed snapshot. The
	// server observes it per edit request.
	OpRebuildOneProc = "RebuildOneProc"
)

// Ops returns the query operations in reporting order.
func Ops() []string { return []string{OpMayAlias, OpMayAliasBatch, OpCountPairs, OpRebuildOneProc} }

// Quantiles are the latency percentiles every latency report exposes.
var Quantiles = []float64{0.5, 0.9, 0.99}

// histBuckets is the number of power-of-two latency buckets: bucket i
// counts observations in [2^i, 2^(i+1)) nanoseconds, which spans 1ns
// to ~18s — more than any served request survives the request timeout.
const histBuckets = 44

// Histogram is a concurrency-safe log2-bucketed latency histogram.
// Observations and reads are lock-free; quantile estimates are upper
// bounds of the containing bucket (a factor-of-two resolution, which
// is what a growth gate needs and costs two atomic adds per sample).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // total ns
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	i := bits.Len64(uint64(ns)) - 1
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(ns))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumNs returns the total observed nanoseconds.
func (h *Histogram) SumNs() uint64 { return h.sum.Load() }

// Quantile estimates the q-th latency quantile in nanoseconds (the
// upper bound of the bucket holding the q-th observation), or 0 when
// nothing has been observed.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			return float64(uint64(1) << (i + 1))
		}
	}
	return float64(uint64(1) << histBuckets)
}

// Registry aggregates one server's counters: query traffic, module
// cache behavior, load shedding, and per-op latency. All methods are
// safe for concurrent use; the zero Registry is not usable — construct
// with New so the per-op histograms exist.
type Registry struct {
	// Query traffic: answered verdicts, verdicts that answered "may
	// alias", and answered batches. The server's per-module session
	// counts add up to the same totals.
	Queries atomic.Uint64
	Aliased atomic.Uint64
	Batches atomic.Uint64

	// Module cache: uploads that found the hash resident (hits) or
	// compiled fresh (misses), LRU evictions, and the resident count.
	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64
	Evictions   atomic.Uint64
	Resident    atomic.Int64

	// Load shedding: batches rejected for size (429), requests
	// rejected because the in-flight limit was reached (503), and
	// uploads rejected while the server is over its memory watermark
	// (503 + Retry-After).
	ShedBatch    atomic.Uint64
	ShedInflight atomic.Uint64
	ShedMemory   atomic.Uint64

	// Fault isolation: requests answered 500 after a recovered panic,
	// (module, level, open) configurations quarantined after repeated
	// panics, and modules evicted by the memory watermark (distinct
	// from the LRU-capacity Evictions above).
	Panics          atomic.Uint64
	Quarantines     atomic.Uint64
	MemoryEvictions atomic.Uint64

	// Edits counts accepted one-procedure edits (each advances a
	// module generation and incrementally re-analyzes it).
	Edits atomic.Uint64

	// Persistent artifact cache: analyzer builds decoded from a valid
	// on-disk artifact (hits), built from scratch because none existed
	// (misses), and built from scratch because an artifact failed
	// validation — truncation, checksum or digest mismatch, version or
	// build skew (invalid; the bad artifact is overwritten).
	ArtifactHits    atomic.Uint64
	ArtifactMisses  atomic.Uint64
	ArtifactInvalid atomic.Uint64

	hist map[string]*Histogram
}

// New returns a Registry with one latency histogram per query op.
func New() *Registry {
	r := &Registry{hist: make(map[string]*Histogram, len(Ops()))}
	for _, op := range Ops() {
		r.hist[op] = &Histogram{}
	}
	return r
}

// Observe records one request's latency under the named op. Unknown
// ops are dropped — the op vocabulary is fixed at construction.
func (r *Registry) Observe(op string, d time.Duration) {
	if h, ok := r.hist[op]; ok {
		h.Observe(d)
	}
}

// Hist returns the named op's histogram, or nil for an unknown op.
func (r *Registry) Hist(op string) *Histogram { return r.hist[op] }

// WritePrometheus renders every counter and latency summary in
// Prometheus text exposition format (version 0.0.4). The op names and
// quantiles are the package-level shared definitions.
func (r *Registry) WritePrometheus(w io.Writer) error {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("tbaad_queries_total", "May-alias verdicts produced.", r.Queries.Load())
	counter("tbaad_aliased_total", "Verdicts that answered may-alias.", r.Aliased.Load())
	counter("tbaad_batches_total", "MayAliasBatch requests served.", r.Batches.Load())
	counter("tbaad_cache_hits_total", "Uploads that found the module resident.", r.CacheHits.Load())
	counter("tbaad_cache_misses_total", "Uploads that compiled a new module.", r.CacheMisses.Load())
	counter("tbaad_evictions_total", "Modules evicted by the LRU cap.", r.Evictions.Load())
	counter("tbaad_edits_total", "One-procedure edits applied incrementally.", r.Edits.Load())
	counter("tbaad_artifact_hits_total", "Analyzer builds decoded from a persisted artifact.", r.ArtifactHits.Load())
	counter("tbaad_artifact_misses_total", "Analyzer builds with no persisted artifact on disk.", r.ArtifactMisses.Load())
	counter("tbaad_artifact_invalid_total", "Analyzer builds that recovered from an invalid artifact.", r.ArtifactInvalid.Load())
	counter("tbaad_panics_total", "Requests answered 500 after a recovered panic.", r.Panics.Load())
	counter("tbaad_quarantines_total", "Analyzer configurations quarantined after repeated panics.", r.Quarantines.Load())
	counter("tbaad_memory_evictions_total", "Modules evicted by the memory watermark.", r.MemoryEvictions.Load())
	fmt.Fprintf(w, "# HELP tbaad_modules_resident Modules currently held in memory.\n")
	fmt.Fprintf(w, "# TYPE tbaad_modules_resident gauge\ntbaad_modules_resident %d\n", r.Resident.Load())
	fmt.Fprintf(w, "# HELP tbaad_shed_total Requests rejected by a limit.\n# TYPE tbaad_shed_total counter\n")
	fmt.Fprintf(w, "tbaad_shed_total{reason=\"batch_size\"} %d\n", r.ShedBatch.Load())
	fmt.Fprintf(w, "tbaad_shed_total{reason=\"inflight\"} %d\n", r.ShedInflight.Load())
	fmt.Fprintf(w, "tbaad_shed_total{reason=\"memory\"} %d\n", r.ShedMemory.Load())
	fmt.Fprintf(w, "# HELP tbaad_query_duration_ns Request latency per query op.\n")
	fmt.Fprintf(w, "# TYPE tbaad_query_duration_ns summary\n")
	for _, op := range Ops() {
		h := r.hist[op]
		for _, q := range Quantiles {
			fmt.Fprintf(w, "tbaad_query_duration_ns{op=%q,quantile=\"%g\"} %g\n", op, q, h.Quantile(q))
		}
		fmt.Fprintf(w, "tbaad_query_duration_ns_sum{op=%q} %d\n", op, h.SumNs())
		fmt.Fprintf(w, "tbaad_query_duration_ns_count{op=%q} %d\n", op, h.Count())
	}
	return nil
}
