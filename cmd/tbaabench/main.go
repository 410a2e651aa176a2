// Command tbaabench regenerates every table and figure from the paper's
// evaluation section (Tables 4-6, Figures 8-12) plus the extension
// tables (Table FS, Table IP) through the evaluation harness in
// internal/eval, which drives the public tbaa package.
//
// Usage:
//
//	tbaabench                    # everything, GOMAXPROCS workers
//	tbaabench -table 5           # one table
//	tbaabench -table fs          # the flow-sensitive extension table
//	tbaabench -table ip          # the interprocedural extension table
//	tbaabench -figure 10         # one figure
//	tbaabench -parallel 1        # force the sequential path
//	tbaabench -fsjson BENCH_fs.json  # write the Table FS JSON artifact
//	tbaabench -ipjson BENCH_ip.json  # write the Table IP JSON artifact
//	tbaabench -scalejson BENCH_scale.json            # trimmed scale sweep (two sizes)
//	tbaabench -scalejson BENCH_scale.json -scalesweep full  # nightly full sweep
//	tbaabench -cpuprofile cpu.out -table 5  # pprof evidence for perf PRs
//
// Output is byte-identical for every worker count: configurations are
// fanned out as independent cells and reassembled in paper order.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"

	"tbaa/internal/eval"
)

func main() {
	table := flag.String("table", "", "regenerate one table (4, 5, 6, fs, or ip)")
	figure := flag.Int("figure", 0, "regenerate one figure (8..12)")
	parallel := flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS, 1 = sequential)")
	fsJSON := flag.String("fsjson", "", "write the Table FS metrics as JSON to `file` (- for stdout)")
	ipJSON := flag.String("ipjson", "", "write the Table IP metrics as JSON to `file` (- for stdout)")
	scaleJSON := flag.String("scalejson", "", "run the scale corpus sweep (generated 10k-100k-line modules × levels) and write JSON to `file` (- for stdout)")
	scaleSweep := flag.String("scalesweep", "trim", "scale sweep size: trim (per-PR, two sizes) or full (nightly, three sizes)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to `file`")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle live-object stats before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	// Batch tool: the compile cache keeps every benchmark's checked
	// module live while the simulators churn allocations, so trade heap
	// headroom for fewer collections (GOGC still overrides).
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(300)
	}

	r := eval.NewRunner(*parallel)

	tableIdx := 0
	switch strings.ToLower(*table) {
	case "", "0":
	case "fs":
		tableIdx = eval.TableFSIndex
	case "ip":
		tableIdx = eval.TableIPIndex
	default:
		n, err := strconv.Atoi(*table)
		if err != nil || n < 4 || n > 6 {
			fatal(fmt.Errorf("invalid -table %q (want 4, 5, 6, fs, or ip)", *table))
		}
		tableIdx = n
	}

	if *scaleJSON != "" {
		full := false
		switch *scaleSweep {
		case "trim":
		case "full":
			full = true
		default:
			fatal(fmt.Errorf("invalid -scalesweep %q (want trim or full)", *scaleSweep))
		}
		rows, err := eval.MeasureScale(full)
		if err != nil {
			fatal(err)
		}
		if err := writeJSONArtifact(*scaleJSON, rows); err != nil {
			fatal(err)
		}
		if *scaleJSON != "-" {
			eval.FprintScale(os.Stdout, rows)
		}
		if tableIdx == 0 && *figure == 0 && *fsJSON == "" && *ipJSON == "" {
			return
		}
	}

	if *fsJSON != "" {
		rows, err := r.TableFS()
		if err != nil {
			fatal(err)
		}
		if err := writeJSONArtifact(*fsJSON, rows); err != nil {
			fatal(err)
		}
		// Table FS was just computed; render it from the same rows
		// instead of re-deriving every cell.
		if tableIdx == eval.TableFSIndex {
			eval.FprintTableFS(os.Stdout, rows)
			fmt.Println()
			tableIdx = 0
		}
		if tableIdx == 0 && *figure == 0 && *ipJSON == "" {
			return
		}
	}

	if *ipJSON != "" {
		rows, err := r.TableIP()
		if err != nil {
			fatal(err)
		}
		if err := writeJSONArtifact(*ipJSON, rows); err != nil {
			fatal(err)
		}
		// Table IP was just computed; render it from the same rows
		// instead of re-deriving every cell.
		if tableIdx == eval.TableIPIndex {
			eval.FprintTableIP(os.Stdout, rows)
			fmt.Println()
			tableIdx = 0
		}
		if tableIdx == 0 && *figure == 0 {
			return
		}
	}

	if err := r.WriteArtifacts(os.Stdout, tableIdx, *figure); err != nil {
		fatal(err)
	}
}

// writeJSONArtifact writes rows as JSON to path ("-" for stdout),
// never shipping a truncated artifact on a failed final flush.
func writeJSONArtifact[T any](path string, rows []T) error {
	if path == "-" {
		return eval.WriteJSON(os.Stdout, rows)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = eval.WriteJSON(f, rows)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tbaabench:", err)
	os.Exit(1)
}
