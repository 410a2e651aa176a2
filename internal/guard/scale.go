package guard

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// The scale gate turns BENCH_scale.json into growth exponents and
// fails when cost grows faster in module size than the per-op policy
// allows. Exponents (the log-log slope of ns/op against module lines,
// fitted over the generated randprog-* sweep points) are
// machine-independent: a slower CI runner shifts every point by a
// constant factor and leaves the slope untouched, so the committed
// baseline stays comparable across hardware — the property an absolute
// ns/op threshold lacks.

// ScaleRow mirrors the BENCH_scale.json schema (eval.ScaleRow); guard
// redeclares it so the package stays dependency-free and testable.
type ScaleRow struct {
	Benchmark string  `json:"benchmark"`
	Lines     int     `json:"lines"`
	Level     string  `json:"level"`
	Op        string  `json:"op"`
	NsPerOp   float64 `json:"ns_per_op"`
}

// ParseScale reads a BENCH_scale.json artifact, rejecting empty or
// malformed inputs with a diagnostic naming the label.
func ParseScale(r io.Reader, label string) ([]ScaleRow, error) {
	var rows []ScaleRow
	if err := json.NewDecoder(r).Decode(&rows); err != nil {
		return nil, fmt.Errorf("%s: malformed scale artifact: %w", label, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: empty scale artifact", label)
	}
	return rows, nil
}

// Exponent is a fitted growth exponent for one (level, op) series.
type Exponent struct {
	Level, Op string
	// Alpha is the least-squares slope of log(ns/op) vs log(lines):
	// 0 = flat, 1 = linear, 2 = quadratic.
	Alpha float64
	// Points is the number of sweep sizes fitted (>= 2).
	Points             int
	MinLines, MaxLines int
	// MinNs/MaxNs are the measurements at the smallest and largest size.
	MinNs, MaxNs float64
}

// seriesKey identifies one exponent series.
type seriesKey struct{ level, op string }

// GrowthExponents fits one exponent per (level, op) over the generated
// sweep modules (benchmark names starting "randprog-"); series with
// fewer than two distinct sizes are skipped — one point has no slope.
func GrowthExponents(rows []ScaleRow) []Exponent {
	series := make(map[seriesKey]map[int]float64)
	for _, r := range rows {
		if !strings.HasPrefix(r.Benchmark, "randprog-") || r.Lines <= 0 || r.NsPerOp <= 0 {
			continue
		}
		k := seriesKey{r.Level, r.Op}
		if series[k] == nil {
			series[k] = make(map[int]float64)
		}
		series[k][r.Lines] = r.NsPerOp
	}
	var out []Exponent
	for k, pts := range series {
		if len(pts) < 2 {
			continue
		}
		var xs, ys []float64
		minL, maxL := 0, 0
		for lines := range pts {
			if minL == 0 || lines < minL {
				minL = lines
			}
			if lines > maxL {
				maxL = lines
			}
		}
		var sizes []int
		for lines := range pts {
			sizes = append(sizes, lines)
		}
		sort.Ints(sizes)
		for _, lines := range sizes {
			xs = append(xs, math.Log(float64(lines)))
			ys = append(ys, math.Log(pts[lines]))
		}
		out = append(out, Exponent{
			Level: k.level, Op: k.op,
			Alpha:  slope(xs, ys),
			Points: len(pts), MinLines: minL, MaxLines: maxL,
			MinNs: pts[minL], MaxNs: pts[maxL],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		return out[i].Level < out[j].Level
	})
	return out
}

// slope is the least-squares slope of y against x.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// ScalePolicy sets the per-op exponent gate: a series fails when its
// alpha exceeds max(Caps[op], baseline alpha + Margin). The hard cap
// states the structural claim (queries ~flat, builds not superlinear);
// the baseline margin catches creep well under the cap. Ops without a
// cap entry are reported but not gated. Ratios adds absolute
// same-machine gates: Ratios[op] fails when op costs more than Max
// times its companion op on the same (module, level) at the largest
// generated module — the shape of a claim like "an incremental rebuild
// is at least 10x cheaper than a from-scratch build", which an
// exponent alone cannot state.
type ScalePolicy struct {
	Caps   map[string]float64
	Margin float64
	Ratios map[string]RatioGate
}

// RatioGate bounds one op's cost relative to a companion op measured
// in the same sweep cell.
type RatioGate struct {
	Against string
	Max     float64
}

// DefaultScalePolicy encodes the repo's scaling claims. Query cost
// must stay ~flat in module size: the partition answers MayAlias in
// O(1), so only cache effects may grow the hot number, and the
// random-pair number may grow sublinearly with working-set misses.
// CountPairs is gated per reference (the sweep output itself grows
// with the module). Build stages — frontend, partition+flow analyzer
// build, SCC mod-ref summaries — must stay below frank quadratic,
// with the margin holding them near the committed curve.
// RebuildOneProc — a one-procedure edit through the incremental
// invalidation path — costs the edited procedure's check, lowering,
// and analysis deltas plus a few plain passes over pointer tables (the
// access-path table copy in ir.ExtendAPs, the mod-ref per-procedure
// maps and call-graph condensation), so it must grow sublinearly: the
// 10k→100k sweep measured exponents of 0.7–0.9 at every level. The
// ratio gate pins it to a fiftieth of the from-scratch build at the
// largest module (measured: under a hundredth).
// AnalyzerWarmStart — decoding a persisted artifact instead of
// re-analyzing — is a single linear pass over the snapshot bytes, so
// its exponent is capped near Compile's, and the ratio gate states
// the tier's reason to exist: a warm start must cost at most a
// quarter of the from-scratch build it replaces.
func DefaultScalePolicy() ScalePolicy {
	return ScalePolicy{
		Caps: map[string]float64{
			"MayAliasHot":       0.35,
			"MayAliasRand":      0.90,
			"CountPairsPerRef":  0.80,
			"Compile":           1.45,
			"AnalyzerBuild":     1.60,
			"AnalyzerWarmStart": 1.45,
			"SummaryCHA":        1.60,
			"SummaryRTA":        1.60,
			"RebuildOneProc":    0.95,
		},
		Margin: 0.25,
		Ratios: map[string]RatioGate{
			"RebuildOneProc":    {Against: "AnalyzerBuild", Max: 0.02},
			"AnalyzerWarmStart": {Against: "AnalyzerBuild", Max: 0.25},
		},
	}
}

// ScaleRowResult is one gated series in a scale report.
type ScaleRowResult struct {
	Exponent
	// BaselineAlpha is NaN when the committed baseline lacks the series.
	BaselineAlpha float64
	// Limit is the alpha this series must not exceed; NaN when the op
	// is untracked (reported, never failed).
	Limit  float64
	Status string // "ok", "FAIL", or "info"
}

// RatioRowResult is one gated cost ratio in a scale report.
type RatioRowResult struct {
	Level, Op, Against string
	// Lines is the module size the ratio was taken at (the largest
	// generated module in the sweep).
	Lines      int
	Ratio, Max float64
	Status     string // "ok" or "FAIL"
}

// ScaleReport is the outcome of a scale-sweep gate run.
type ScaleReport struct {
	Rows   []ScaleRowResult
	Ratios []RatioRowResult
	Failed bool
}

// CompareScale gates the current sweep's growth exponents against the
// policy and the committed baseline sweep. base may be nil (bootstrap:
// hard caps only).
func CompareScale(cur, base []ScaleRow, pol ScalePolicy) (*ScaleReport, error) {
	exps := GrowthExponents(cur)
	if len(exps) == 0 {
		return nil, fmt.Errorf("current artifact has no gateable series: need randprog-* rows at >=2 module sizes")
	}
	baseAlpha := make(map[seriesKey]float64)
	for _, e := range GrowthExponents(base) {
		baseAlpha[seriesKey{e.Level, e.Op}] = e.Alpha
	}
	rep := &ScaleReport{}
	for _, e := range exps {
		row := ScaleRowResult{Exponent: e, BaselineAlpha: math.NaN(), Limit: math.NaN(), Status: "info"}
		if ba, ok := baseAlpha[seriesKey{e.Level, e.Op}]; ok {
			row.BaselineAlpha = ba
		}
		if cap, tracked := pol.Caps[e.Op]; tracked {
			row.Limit = cap
			if !math.IsNaN(row.BaselineAlpha) && row.BaselineAlpha+pol.Margin > cap {
				row.Limit = row.BaselineAlpha + pol.Margin
			}
			row.Status = "ok"
			if e.Alpha > row.Limit {
				row.Status = "FAIL"
				rep.Failed = true
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	for _, r := range ratioRows(cur, pol) {
		if r.Status == "FAIL" {
			rep.Failed = true
		}
		rep.Ratios = append(rep.Ratios, r)
	}
	return rep, nil
}

// ratioRows evaluates the policy's cost-ratio gates at the largest
// generated module of the current sweep — the size where an absolute
// claim like "10x cheaper than a from-scratch build" matters most and
// constant overheads matter least. Gates whose op or companion is
// absent from the sweep are skipped, so older artifacts without the op
// stay parseable.
func ratioRows(rows []ScaleRow, pol ScalePolicy) []RatioRowResult {
	if len(pol.Ratios) == 0 {
		return nil
	}
	maxLines := 0
	for _, r := range rows {
		if strings.HasPrefix(r.Benchmark, "randprog-") && r.Lines > maxLines {
			maxLines = r.Lines
		}
	}
	if maxLines == 0 {
		return nil
	}
	cell := make(map[seriesKey]float64)
	for _, r := range rows {
		if strings.HasPrefix(r.Benchmark, "randprog-") && r.Lines == maxLines && r.NsPerOp > 0 {
			cell[seriesKey{r.Level, r.Op}] = r.NsPerOp
		}
	}
	var keys []seriesKey
	for k := range cell {
		if _, gated := pol.Ratios[k.op]; gated {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].op != keys[j].op {
			return keys[i].op < keys[j].op
		}
		return keys[i].level < keys[j].level
	})
	var out []RatioRowResult
	for _, k := range keys {
		g := pol.Ratios[k.op]
		against, ok := cell[seriesKey{k.level, g.Against}]
		if !ok {
			continue
		}
		r := RatioRowResult{
			Level: k.level, Op: k.op, Against: g.Against,
			Lines: maxLines, Ratio: cell[k] / against, Max: g.Max,
			Status: "ok",
		}
		if r.Ratio > g.Max {
			r.Status = "FAIL"
		}
		out = append(out, r)
	}
	return out
}

// Fprint renders a scale report.
func (rep *ScaleReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%-4s %-16s %-18s %7s %9s %7s  %s\n",
		"", "Level", "Op", "alpha", "baseline", "limit", "sweep")
	for _, r := range rep.Rows {
		status := r.Status
		if status == "ok" {
			status = "ok  "
		}
		base, limit := "-", "-"
		if !math.IsNaN(r.BaselineAlpha) {
			base = fmt.Sprintf("%.2f", r.BaselineAlpha)
		}
		if !math.IsNaN(r.Limit) {
			limit = fmt.Sprintf("%.2f", r.Limit)
		}
		fmt.Fprintf(w, "%-4s %-16s %-18s %7.2f %9s %7s  %d..%d lines (%.0f -> %.0f ns)\n",
			status, r.Level, r.Op, r.Alpha, base, limit, r.MinLines, r.MaxLines, r.MinNs, r.MaxNs)
	}
	for _, r := range rep.Ratios {
		status := r.Status
		if status == "ok" {
			status = "ok  "
		}
		fmt.Fprintf(w, "%-4s %-16s %-18s %s = %.3f of %s (max %.2f) at %d lines\n",
			status, r.Level, r.Op, "cost", r.Ratio, r.Against, r.Max, r.Lines)
	}
}
