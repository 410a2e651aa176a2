// Package bench contains the MiniM3 benchmark programs standing in for
// the paper's Modula-3 suite (Table 4). The harness that regenerates
// the evaluation section's tables and figures over it is
// internal/eval; the public tbaa package re-exports the suite via
// tbaa.Benchmarks.
//
// The programs carry the paper's benchmark names and reproduce their
// shapes: text formatters working over word lists and character arrays
// (format, dformat), an AST pickler (write-pickle), a k-ary tree sequence
// manager (k-tree), a small lisp interpreter (slisp), a pretty printer
// (pp), a Modula-2→Modula-3 token translator (m2tom3), and a toy code
// generator (m3cg).
package bench

import (
	"fmt"
	"strings"
)

// Benchmark is one program in the suite.
type Benchmark struct {
	Name        string
	Description string
	Source      string
	// Interactive marks programs the paper only reports static metrics
	// for (dom, postcard); none of ours are.
	Interactive bool
}

var registry []Benchmark

func register(b Benchmark) { registry = append(registry, b) }

// All returns the benchmark suite in the paper's Table 4 order,
// including the two interactive programs (dom, postcard) the paper
// reports only static metrics for.
func All() []Benchmark {
	ordered := []string{"format", "dformat", "write-pickle", "k-tree",
		"slisp", "pp", "dom", "postcard", "m2tom3", "m3cg"}
	var out []Benchmark
	for _, name := range ordered {
		for _, b := range registry {
			if b.Name == name {
				out = append(out, b)
			}
		}
	}
	return out
}

// Measured returns the non-interactive benchmarks (the ones the paper
// reports dynamic numbers for).
func Measured() []Benchmark {
	var out []Benchmark
	for _, b := range All() {
		if !b.Interactive {
			out = append(out, b)
		}
	}
	return out
}

// ByName returns a benchmark or false.
func ByName(name string) (Benchmark, bool) {
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// SourceLines counts non-comment, non-blank lines (the paper's "Lines").
func SourceLines(src string) int {
	n := 0
	depth := 0
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		// Track (* *) comment nesting coarsely, line by line.
		code := false
		i := 0
		for i < len(trimmed) {
			if i+1 < len(trimmed) && trimmed[i] == '(' && trimmed[i+1] == '*' {
				depth++
				i += 2
				continue
			}
			if i+1 < len(trimmed) && trimmed[i] == '*' && trimmed[i+1] == ')' {
				if depth > 0 {
					depth--
				}
				i += 2
				continue
			}
			if depth == 0 && trimmed[i] != ' ' && trimmed[i] != '\t' {
				code = true
			}
			i++
		}
		if code {
			n++
		}
	}
	return n
}

// Pct formats a ratio as a percentage string.
func Pct(num, den uint64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", 100*float64(num)/float64(den))
}
