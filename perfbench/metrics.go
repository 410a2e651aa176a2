package main

// endToEnd lists the end-to-end metrics every untraced run reports, in
// the order BENCHMARK.json declares them. They are all medians: the
// tails and the served capacity move with the load on the host by more
// than any bound a gate could hold, so they are reported per layer.
var endToEnd = []string{
	"setup_s",
	"query_us.p50", "batch_ms.p50", "edit_ms.p50",
	"cold_build_ms", "opt_build_ms", "warm_start_ms", "countpairs_ms", "analyzer_heap_mb",
}

// perLayer lists the per-layer metrics every traced run reports, with
// their units. A layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"parser.ms", "ms"}, {"parser.alloc_mb", "MB"}, {"parser.lines_per_s", "1/s"},
	{"sema.ms", "ms"}, {"sema.alloc_mb", "MB"},
	{"lower.ms", "ms"}, {"lower.alloc_mb", "MB"}, {"lower.instrs", "count"},
	{"ir.intern.ms", "ms"}, {"ir.aps", "count"}, {"ir.extend.ms", "ms"},
	{"alias.new.ms", "ms"}, {"alias.new.alloc_mb", "MB"}, {"alias.partition.ms", "ms"}, {"alias.classes", "count"},
	{"alias.update.ms", "ms"}, {"alias.countpairs.ms", "ms"}, {"alias.mayalias.ns", "ns"},
	{"modref.ms", "ms"}, {"modref.alloc_mb", "MB"}, {"modref.update.ms", "ms"},
	{"opt.rle.ms", "ms"}, {"opt.rle.alloc_mb", "MB"}, {"opt.rle.removed", "count"},
	{"artifact.encode.ms", "ms"}, {"artifact.bytes", "bytes"}, {"artifact.decode.ms", "ms"},
	{"tbaa.new_analyzer.ms", "ms"}, {"tbaa.snapshot.ms", "ms"}, {"tbaa.mayalias.ns", "ns"},
	{"tbaa.batch.ns_per_pair", "ns"}, {"tbaa.module_edit.ms", "ms"}, {"tbaa.apply_edit.ms", "ms"},
	{"server.mayalias.us", "us"}, {"server.batch.ms", "ms"}, {"server.edit.ms", "ms"}, {"server.upload.ms", "ms"},
	{"net.mayalias.us", "us"},
	{"query_us.p90", "us"}, {"query_us.p99", "us"}, {"edit_ms.p90", "ms"}, {"max_qps", "1/s"},
	{"loadgen.late_ms.p99", "ms"}, {"loadgen.sent", "count"}, {"loadgen.due_us.p99", "us"},
	{"gc.cycles_per_op", "count"}, {"gc.pause_ms.p99", "ms"}, {"heap.live_mb", "MB"},
	{"stagesum.cold.share", "ratio"}, {"stagesum.opt.share", "ratio"},
	{"trace.overhead_pct", "%"},
}

// want lists the metrics this run's result must carry.
func (r *run) want() []string {
	if !r.trace {
		return endToEnd
	}
	var names []string
	for _, m := range perLayer {
		names = append(names, m.name)
	}
	return names
}
