package eval

import (
	"encoding/json"
	"fmt"
	"io"

	"tbaa"
	"tbaa/internal/bench"
	"tbaa/internal/driver"
	"tbaa/internal/limit"
	"tbaa/internal/par"
)

// paperLevels is the level sweep used by the harness fan-outs.
var paperLevels = tbaa.Levels()

// ---------------------------------------------------------------------------
// Table 4 — benchmark descriptions

// Table4Row describes one benchmark (paper Table 4).
type Table4Row struct {
	Name         string
	Lines        int
	Instructions uint64
	HeapLoadPct  float64
	OtherLoadPct float64
	Description  string
	Interactive  bool
}

// Table4 runs every benchmark unoptimized and reports its profile.
// Interactive programs get only their static size, as in the paper.
// It fans out one cell per benchmark.
func (r *Runner) Table4() ([]Table4Row, error) {
	bs := bench.All()
	rows := make([]Table4Row, len(bs))
	err := par.Run(r.workers, len(bs), func(i int) error {
		b := bs[i]
		row := Table4Row{
			Name:        b.Name,
			Lines:       bench.SourceLines(b.Source),
			Description: b.Description,
			Interactive: b.Interactive,
		}
		if !b.Interactive {
			a, err := r.analyzer(b)
			if err != nil {
				return err
			}
			_, st, err := a.Run()
			if err != nil {
				return fmt.Errorf("%s: %w", b.Name, err)
			}
			row.Instructions = st.Instructions
			row.HeapLoadPct = 100 * float64(st.HeapLoads) / float64(st.Instructions)
			row.OtherLoadPct = 100 * float64(st.OtherLoads) / float64(st.Instructions)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FprintTable4 renders Table 4.
func FprintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table 4: Description of Benchmark Programs\n")
	fmt.Fprintf(w, "%-14s %6s %14s %12s %13s\n", "Name", "Lines", "Instructions", "% Heap loads", "% Other loads")
	for _, r := range rows {
		if r.Interactive {
			fmt.Fprintf(w, "%-14s %6d %14s %12s %13s\n", r.Name, r.Lines, "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "%-14s %6d %14d %12.0f %13.0f\n",
			r.Name, r.Lines, r.Instructions, r.HeapLoadPct, r.OtherLoadPct)
	}
}

// ---------------------------------------------------------------------------
// Table 5 — static alias pairs

// Table5Row holds local/global alias pairs per analysis (paper Table 5).
type Table5Row struct {
	Name       string
	References int
	Local      [3]int
	Global     [3]int
}

// Table5 counts may-alias pairs under the three analyses.
func (r *Runner) Table5() ([]Table5Row, error) {
	bs := bench.All()
	counts, err := perLevel(r, bs, paperLevels, r.pairs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table5Row, len(bs))
	for i, b := range bs {
		rows[i].Name = b.Name
		for li, pc := range counts[i] {
			rows[i].References = pc.References
			rows[i].Local[li] = pc.Local
			rows[i].Global[li] = pc.Global
		}
	}
	return rows, nil
}

// perLevel evaluates cell for every (benchmark × level) on the
// runner's pool, one cell each, and returns the results indexed
// [benchmark][level].
func perLevel[T any](r *Runner, bs []bench.Benchmark, levels []tbaa.Level, cell func(bench.Benchmark, tbaa.Level) (T, error)) ([][]T, error) {
	out := make([][]T, len(bs))
	for i := range out {
		out[i] = make([]T, len(levels))
	}
	err := par.Run(r.workers, len(bs)*len(levels), func(ci int) error {
		i, li := ci/len(levels), ci%len(levels)
		var err error
		out[i][li], err = cell(bs[i], levels[li])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pairs counts b's static may-alias pairs at lvl (Table 5's metric).
func (r *Runner) pairs(b bench.Benchmark, lvl tbaa.Level) (tbaa.PairCounts, error) {
	a, err := r.analyzer(b, tbaa.WithLevel(lvl))
	if err != nil {
		return tbaa.PairCounts{}, err
	}
	return a.CountPairs(), nil
}

// removed counts the loads RLE removes statically from b at lvl
// (Table 6's metric). Every call builds a fresh Analyzer, because RLE
// mutates the lowered program.
func (r *Runner) removed(b bench.Benchmark, lvl tbaa.Level) (int, error) {
	a, err := r.analyzer(b, tbaa.WithLevel(lvl), tbaa.WithPasses(tbaa.RLE()))
	if err != nil {
		return 0, err
	}
	return a.PassResults()[0].Removed(), nil
}

// staticCounts is one Table FS/IP cell: both static metrics of a
// benchmark at one level.
type staticCounts struct {
	pairs   tbaa.PairCounts
	removed int
}

// static measures b's pairs and RLE removals at lvl in one cell, so
// Tables FS and IP fan out through a single pool.
func (r *Runner) static(b bench.Benchmark, lvl tbaa.Level) (staticCounts, error) {
	pc, err := r.pairs(b, lvl)
	if err != nil {
		return staticCounts{}, err
	}
	n, err := r.removed(b, lvl)
	return staticCounts{pc, n}, err
}

// FprintTable5 renders Table 5.
func FprintTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintf(w, "Table 5: Alias Pairs\n")
	fmt.Fprintf(w, "%-14s %5s | %9s %9s | %9s %9s | %9s %9s\n",
		"", "", "TypeDecl", "", "FieldTD", "", "SMFieldTR", "")
	fmt.Fprintf(w, "%-14s %5s | %9s %9s | %9s %9s | %9s %9s\n",
		"Program", "Refs", "L Alias", "G Alias", "L Alias", "G Alias", "L Alias", "G Alias")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %5d | %9d %9d | %9d %9d | %9d %9d\n",
			r.Name, r.References,
			r.Local[0], r.Global[0], r.Local[1], r.Global[1], r.Local[2], r.Global[2])
	}
}

// ---------------------------------------------------------------------------
// Table 6 — redundant loads removed statically

// Table6Row reports static RLE removals per analysis (paper Table 6).
type Table6Row struct {
	Name    string
	Removed [3]int
}

// Table6 runs RLE per level and counts removed loads.
func (r *Runner) Table6() ([]Table6Row, error) {
	bs := bench.Measured()
	removed, err := perLevel(r, bs, paperLevels, r.removed)
	if err != nil {
		return nil, err
	}
	rows := make([]Table6Row, len(bs))
	for i, b := range bs {
		rows[i] = Table6Row{Name: b.Name, Removed: [3]int(removed[i])}
	}
	return rows, nil
}

// FprintTable6 renders Table 6.
func FprintTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintf(w, "Table 6: Number of Redundant Loads Removed Statically\n")
	fmt.Fprintf(w, "%-14s %9s %14s %16s\n", "Program", "TypeDecl", "FieldTypeDecl", "SMFieldTypeRefs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %9d %14d %16d\n", r.Name, r.Removed[0], r.Removed[1], r.Removed[2])
	}
}

// ---------------------------------------------------------------------------
// Table FS — the flow-sensitive refinement vs SMFieldTypeRefs
// (an extension table; not in the paper)

// TableFSRow compares SMFieldTypeRefs with its flow-sensitive
// refinement FSTypeRefs on one benchmark: the Table 5 pair metrics
// under both analyses, the pairs the refinement disambiguates, and the
// loads RLE removes statically under each.
type TableFSRow struct {
	Name       string `json:"benchmark"`
	References int    `json:"references"`
	// GlobalSM/GlobalFS and LocalSM/LocalFS are may-alias pair counts
	// under the two analyses (site-anchored for FSTypeRefs).
	GlobalSM int `json:"global_pairs_smfieldtyperefs"`
	GlobalFS int `json:"global_pairs_fstyperefs"`
	LocalSM  int `json:"local_pairs_smfieldtyperefs"`
	LocalFS  int `json:"local_pairs_fstyperefs"`
	// Disambiguated is GlobalSM - GlobalFS: pairs the refinement proves
	// non-aliased.
	Disambiguated int `json:"pairs_disambiguated"`
	// RemovedSM/RemovedFS count loads removed statically by RLE.
	// RemovedFS >= RemovedSM always: the refinement only removes kills.
	RemovedSM int `json:"loads_removed_smfieldtyperefs"`
	RemovedFS int `json:"loads_removed_fstyperefs"`
}

// TableFS evaluates the flow-sensitive refinement on every benchmark.
// The pair metrics and RLE counts are static, so the interactive
// programs are measured too.
func (r *Runner) TableFS() ([]TableFSRow, error) {
	bs := bench.All()
	levels := []tbaa.Level{tbaa.SMFieldTypeRefs, tbaa.FSTypeRefs}
	cells, err := perLevel(r, bs, levels, r.static)
	if err != nil {
		return nil, err
	}
	rows := make([]TableFSRow, len(bs))
	for i, b := range bs {
		sm, fs := cells[i][0], cells[i][1]
		rows[i] = TableFSRow{
			Name:          b.Name,
			References:    sm.pairs.References,
			GlobalSM:      sm.pairs.Global,
			GlobalFS:      fs.pairs.Global,
			LocalSM:       sm.pairs.Local,
			LocalFS:       fs.pairs.Local,
			Disambiguated: sm.pairs.Global - fs.pairs.Global,
			RemovedSM:     sm.removed,
			RemovedFS:     fs.removed,
		}
	}
	return rows, nil
}

// FprintTableFS renders Table FS.
func FprintTableFS(w io.Writer, rows []TableFSRow) {
	fmt.Fprintf(w, "Table FS: Flow-Sensitive Refinement (FSTypeRefs vs SMFieldTypeRefs)\n")
	fmt.Fprintf(w, "%-14s %5s | %7s %7s | %7s %7s | %8s | %6s %6s\n",
		"Program", "Refs", "G SM", "G FS", "L SM", "L FS", "Disambig", "RLE SM", "RLE FS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %5d | %7d %7d | %7d %7d | %8d | %6d %6d\n",
			r.Name, r.References, r.GlobalSM, r.GlobalFS, r.LocalSM, r.LocalFS,
			r.Disambiguated, r.RemovedSM, r.RemovedFS)
	}
}

// ---------------------------------------------------------------------------
// Table IP — the interprocedural layer vs FSTypeRefs vs SMFieldTypeRefs
// (an extension table; not in the paper)

// TableIPRow compares SMFieldTypeRefs, FSTypeRefs, and IPTypeRefs on
// one benchmark: global may-alias pairs under the three analyses
// (site-anchored for FS and IP), the additional pairs the
// interprocedural layer disambiguates beyond FS, and the loads RLE
// removes statically under each.
type TableIPRow struct {
	Name       string `json:"benchmark"`
	References int    `json:"references"`
	// GlobalSM/GlobalFS/GlobalIP are global may-alias pair counts.
	// GlobalIP <= GlobalFS <= GlobalSM always: each layer only removes
	// pairs.
	GlobalSM int `json:"global_pairs_smfieldtyperefs"`
	GlobalFS int `json:"global_pairs_fstyperefs"`
	GlobalIP int `json:"global_pairs_iptyperefs"`
	// Disambiguated is GlobalFS - GlobalIP: pairs only the
	// interprocedural summaries prove non-aliased.
	Disambiguated int `json:"pairs_disambiguated_vs_fs"`
	// RemovedSM/RemovedFS/RemovedIP count loads removed statically by
	// RLE. RemovedIP >= RemovedFS >= RemovedSM always: the layers only
	// remove kills.
	RemovedSM int `json:"loads_removed_smfieldtyperefs"`
	RemovedFS int `json:"loads_removed_fstyperefs"`
	RemovedIP int `json:"loads_removed_iptyperefs"`
}

// TableIP evaluates the interprocedural layer on every benchmark. The
// metrics are static, so the interactive programs are measured too.
func (r *Runner) TableIP() ([]TableIPRow, error) {
	bs := bench.All()
	levels := []tbaa.Level{tbaa.SMFieldTypeRefs, tbaa.FSTypeRefs, tbaa.IPTypeRefs}
	cells, err := perLevel(r, bs, levels, r.static)
	if err != nil {
		return nil, err
	}
	rows := make([]TableIPRow, len(bs))
	for i, b := range bs {
		sm, fs, ip := cells[i][0], cells[i][1], cells[i][2]
		rows[i] = TableIPRow{
			Name:          b.Name,
			References:    sm.pairs.References,
			GlobalSM:      sm.pairs.Global,
			GlobalFS:      fs.pairs.Global,
			GlobalIP:      ip.pairs.Global,
			Disambiguated: fs.pairs.Global - ip.pairs.Global,
			RemovedSM:     sm.removed,
			RemovedFS:     fs.removed,
			RemovedIP:     ip.removed,
		}
	}
	return rows, nil
}

// FprintTableIP renders Table IP.
func FprintTableIP(w io.Writer, rows []TableIPRow) {
	fmt.Fprintf(w, "Table IP: Interprocedural Mod-Ref (IPTypeRefs vs FSTypeRefs vs SMFieldTypeRefs)\n")
	fmt.Fprintf(w, "%-14s %5s | %7s %7s %7s | %8s | %6s %6s %6s\n",
		"Program", "Refs", "G SM", "G FS", "G IP", "Disambig", "RLE SM", "RLE FS", "RLE IP")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %5d | %7d %7d %7d | %8d | %6d %6d %6d\n",
			r.Name, r.References, r.GlobalSM, r.GlobalFS, r.GlobalIP,
			r.Disambiguated, r.RemovedSM, r.RemovedFS, r.RemovedIP)
	}
}

// ---------------------------------------------------------------------------
// Figure 8 — simulated execution time of RLE per analysis

// Figure8Row reports percent-of-base simulated time per level.
type Figure8Row struct {
	Name string
	Pct  [3]float64 // TypeDecl, FieldTypeDecl, SMFieldTypeRefs
}

// simConfig is one simulated configuration: the options its Analyzer
// is built with, and the label its errors carry.
type simConfig struct {
	name string
	opts []tbaa.Option
}

// simBase is the unoptimized configuration the figures divide by.
var simBase = simConfig{name: "base"}

// simPercents simulates every measured benchmark under each
// configuration, one cell per (benchmark × configuration), and returns
// per benchmark the simulated cycles of configs[1:] as percentages of
// the base configuration configs[0]. A configuration whose program
// output differs from the base's is an error.
func (r *Runner) simPercents(configs ...simConfig) ([][]float64, error) {
	type simCell struct {
		cycles uint64
		out    string
	}
	bs := bench.Measured()
	stride := len(configs)
	cells := make([]simCell, len(bs)*stride)
	err := par.Run(r.workers, len(cells), func(ci int) error {
		b, c := bs[ci/stride], configs[ci%stride]
		a, err := r.analyzer(b, c.opts...)
		if err != nil {
			return err
		}
		res, out, err := a.Simulate()
		if err != nil {
			return fmt.Errorf("%s (%s): %w", b.Name, c.name, err)
		}
		cells[ci] = simCell{res.Cycles, out}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pcts := make([][]float64, len(bs))
	for i, b := range bs {
		base := cells[i*stride]
		for j := 1; j < stride; j++ {
			c := cells[i*stride+j]
			if c.out != base.out {
				return nil, fmt.Errorf("%s (%s): output changed by optimization", b.Name, configs[j].name)
			}
			pcts[i] = append(pcts[i], 100*float64(c.cycles)/float64(base.cycles))
		}
	}
	return pcts, nil
}

// Figure8 simulates every benchmark unoptimized and under RLE at each
// analysis level.
func (r *Runner) Figure8() ([]Figure8Row, error) {
	configs := []simConfig{simBase}
	for _, lvl := range paperLevels {
		configs = append(configs, simConfig{lvl.String(), []tbaa.Option{tbaa.WithLevel(lvl), tbaa.WithPasses(tbaa.RLE())}})
	}
	pcts, err := r.simPercents(configs...)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure8Row, len(pcts))
	for i, b := range bench.Measured() {
		rows[i] = Figure8Row{Name: b.Name, Pct: [3]float64(pcts[i])}
	}
	return rows, nil
}

// FprintFigure8 renders Figure 8.
func FprintFigure8(w io.Writer, rows []Figure8Row) {
	fmt.Fprintf(w, "Figure 8: Impact of RLE (percent of original running time)\n")
	fmt.Fprintf(w, "%-14s %5s %10s %13s %16s\n", "Program", "Base", "TypeDecl", "FieldTypeDecl", "SMFieldTypeRefs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %5d %10.0f %13.0f %16.0f\n",
			r.Name, 100, r.Pct[0], r.Pct[1], r.Pct[2])
	}
}

// ---------------------------------------------------------------------------
// Figure 9 — dynamically redundant loads before/after TBAA+RLE

// Figure9Row reports redundant-load fractions of original heap loads.
type Figure9Row struct {
	Name      string
	Original  float64 // fraction redundant in the unoptimized program
	Optimized float64 // fraction remaining after TBAA+RLE
}

// limitCells runs the limit study per benchmark on the unoptimized
// program (cell 0) and on the TBAA+RLE-optimized program (cell 1) —
// the shared fan-out behind Figures 9 and 10.
func (r *Runner) limitCells(bs []bench.Benchmark) ([]limit.Report, error) {
	reps := make([]limit.Report, 2*len(bs))
	err := par.Run(r.workers, len(reps), func(ci int) error {
		b, optimized := bs[ci/2], ci%2 == 1
		var rep limit.Report
		var err error
		if optimized {
			a, aerr := r.analyzer(b, tbaa.WithPasses(tbaa.RLE()))
			if aerr != nil {
				return aerr
			}
			var lr tbaa.LimitReport
			lr, _, err = a.LimitStudy()
			rep = limit.Report{HeapLoads: lr.HeapLoads, Redundant: lr.Redundant}
			for c, cc := range lr.Categories {
				rep.ByCategory[c] = cc.Loads
			}
		} else {
			prog, _, cerr := driver.Compile(b.Name+".m3", b.Source)
			if cerr != nil {
				return fmt.Errorf("%s: %w", b.Name, cerr)
			}
			rep, _, err = limit.Measure(prog, nil, nil)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		reps[ci] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reps, nil
}

// Figure9 runs the limit study on original and optimized programs.
// It fans out one cell per benchmark × {original, optimized}.
func (r *Runner) Figure9() ([]Figure9Row, error) {
	bs := bench.Measured()
	reps, err := r.limitCells(bs)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure9Row, len(bs))
	for i, b := range bs {
		repBase, repOpt := reps[2*i], reps[2*i+1]
		rows[i] = Figure9Row{
			Name:      b.Name,
			Original:  repBase.Fraction(repBase.HeapLoads),
			Optimized: repOpt.Fraction(repBase.HeapLoads),
		}
	}
	return rows, nil
}

// FprintFigure9 renders Figure 9.
func FprintFigure9(w io.Writer, rows []Figure9Row) {
	fmt.Fprintf(w, "Figure 9: Comparing TBAA to an Upper Bound\n")
	fmt.Fprintf(w, "(fraction of original heap references that are dynamically redundant)\n")
	fmt.Fprintf(w, "%-14s %22s %22s\n", "Program", "Redundant originally", "Redundant after opts")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %22.2f %22.2f\n", r.Name, r.Original, r.Optimized)
	}
}

// ---------------------------------------------------------------------------
// Figure 10 — classification of remaining redundant loads

// Figure10Row splits remaining redundancy into the paper's categories,
// as fractions of the original program's heap loads.
type Figure10Row struct {
	Name      string
	Fractions [5]float64 // Encapsulated, Conditional, Breakup, AliasFailure, Rest
}

// Figure10 classifies the redundant loads remaining after TBAA+RLE.
// It fans out one cell per benchmark × {original, optimized}.
func (r *Runner) Figure10() ([]Figure10Row, error) {
	bs := bench.Measured()
	reps, err := r.limitCells(bs)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure10Row, len(bs))
	for i, b := range bs {
		repBase, rep := reps[2*i], reps[2*i+1]
		row := Figure10Row{Name: b.Name}
		den := float64(repBase.HeapLoads)
		if den > 0 {
			for c := 0; c < 5; c++ {
				row.Fractions[c] = float64(rep.ByCategory[c]) / den
			}
		}
		rows[i] = row
	}
	return rows, nil
}

// FprintFigure10 renders Figure 10.
func FprintFigure10(w io.Writer, rows []Figure10Row) {
	fmt.Fprintf(w, "Figure 10: Source of Redundant Loads after Optimizations\n")
	fmt.Fprintf(w, "(fraction of original heap references)\n")
	fmt.Fprintf(w, "%-14s %13s %12s %9s %13s %7s\n",
		"Program", "Encapsulated", "Conditional", "Breakup", "AliasFailure", "Rest")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %13.3f %12.3f %9.3f %13.3f %7.3f\n",
			r.Name, r.Fractions[0], r.Fractions[1], r.Fractions[2], r.Fractions[3], r.Fractions[4])
	}
}

// ---------------------------------------------------------------------------
// Figure 11 — cumulative impact of RLE and Minv+Inlining

// Figure11Row reports percent-of-base time for the three configurations.
type Figure11Row struct {
	Name       string
	RLE        float64
	MinvInline float64
	Both       float64
}

// Figure11 measures RLE, devirt+inline, and their combination.
func (r *Runner) Figure11() ([]Figure11Row, error) {
	pcts, err := r.simPercents(
		simBase,
		simConfig{"RLE", []tbaa.Option{tbaa.WithPasses(tbaa.RLE())}},
		simConfig{"Minv+Inlining", []tbaa.Option{tbaa.WithPasses(tbaa.MinvInline())}},
		simConfig{"RLE+Minv+Inlining", []tbaa.Option{tbaa.WithPasses(tbaa.MinvInline(), tbaa.RLE())}},
	)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure11Row, len(pcts))
	for i, b := range bench.Measured() {
		rows[i] = Figure11Row{Name: b.Name, RLE: pcts[i][0], MinvInline: pcts[i][1], Both: pcts[i][2]}
	}
	return rows, nil
}

// FprintFigure11 renders Figure 11.
func FprintFigure11(w io.Writer, rows []Figure11Row) {
	fmt.Fprintf(w, "Figure 11: Cumulative Impact of Optimizations (percent of original time)\n")
	fmt.Fprintf(w, "%-14s %5s %6s %14s %18s\n", "Program", "Base", "RLE", "Minv+Inlining", "RLE+Minv+Inlining")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %5d %6.0f %14.0f %18.0f\n", r.Name, 100, r.RLE, r.MinvInline, r.Both)
	}
}

// ---------------------------------------------------------------------------
// Figure 12 — open vs closed world

// Figure12Row reports percent-of-base time for closed- and open-world TBAA.
type Figure12Row struct {
	Name   string
	Closed float64
	Open   float64
}

// Figure12 compares RLE under the closed- and open-world assumptions.
func (r *Runner) Figure12() ([]Figure12Row, error) {
	pcts, err := r.simPercents(
		simBase,
		simConfig{"RLE closed world", []tbaa.Option{tbaa.WithOpenWorld(false), tbaa.WithPasses(tbaa.RLE())}},
		simConfig{"RLE open world", []tbaa.Option{tbaa.WithOpenWorld(true), tbaa.WithPasses(tbaa.RLE())}},
	)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure12Row, len(pcts))
	for i, b := range bench.Measured() {
		rows[i] = Figure12Row{Name: b.Name, Closed: pcts[i][0], Open: pcts[i][1]}
	}
	return rows, nil
}

// FprintFigure12 renders Figure 12.
func FprintFigure12(w io.Writer, rows []Figure12Row) {
	fmt.Fprintf(w, "Figure 12: Open and Closed World Assumptions (percent of original time)\n")
	fmt.Fprintf(w, "%-14s %12s %12s\n", "Program", "RLE", "RLE Open")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12.0f %12.0f\n", r.Name, r.Closed, r.Open)
	}
}

// ---------------------------------------------------------------------------
// Artifact dispatch

// WriteJSON writes rows as an indented JSON array: TableFS rows are the
// BENCH_fs.json artifact, TableIP rows BENCH_ip.json, and MeasureScale
// rows BENCH_scale.json, which benchguard -scale gates.
func WriteJSON[T any](w io.Writer, rows []T) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// TableFSIndex selects Table FS (the flow-sensitive extension table)
// in WriteArtifacts' table parameter; the paper's own tables keep their
// numbers 4-6.
const TableFSIndex = 7

// TableIPIndex selects Table IP (the interprocedural extension table)
// in WriteArtifacts' table parameter.
const TableIPIndex = 8

// WriteArtifacts regenerates the selected artifacts and renders them to
// w in paper order, each followed by a blank separator line. table
// selects one table (4-6, TableFSIndex for the flow-sensitive
// extension table, or TableIPIndex for the interprocedural one) and
// figure one figure (8-12); when both are zero, every artifact is
// produced, with Tables FS and IP after Table 6. This is the engine
// behind cmd/tbaabench.
func (r *Runner) WriteArtifacts(w io.Writer, table, figure int) error {
	all := table == 0 && figure == 0
	artifacts := []struct {
		selected bool
		write    func() error
	}{
		{table == 4, func() error { return emit(w, r.Table4, FprintTable4) }},
		{table == 5, func() error { return emit(w, r.Table5, FprintTable5) }},
		{table == 6, func() error { return emit(w, r.Table6, FprintTable6) }},
		{table == TableFSIndex, func() error { return emit(w, r.TableFS, FprintTableFS) }},
		{table == TableIPIndex, func() error { return emit(w, r.TableIP, FprintTableIP) }},
		{figure == 8, func() error { return emit(w, r.Figure8, FprintFigure8) }},
		{figure == 9, func() error { return emit(w, r.Figure9, FprintFigure9) }},
		{figure == 10, func() error { return emit(w, r.Figure10, FprintFigure10) }},
		{figure == 11, func() error { return emit(w, r.Figure11, FprintFigure11) }},
		{figure == 12, func() error { return emit(w, r.Figure12, FprintFigure12) }},
	}
	for _, a := range artifacts {
		if all || a.selected {
			if err := a.write(); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit regenerates one artifact and renders it to w, followed by a
// blank separator line.
func emit[T any](w io.Writer, gen func() ([]T, error), fprint func(io.Writer, []T)) error {
	rows, err := gen()
	if err != nil {
		return err
	}
	fprint(w, rows)
	fmt.Fprintln(w)
	return nil
}
