package tbaa

import "tbaa/internal/bench"

// Benchmark is one program of the paper's evaluation suite (Table 4).
type Benchmark struct {
	Name        string
	Description string
	// Source is the program's MiniM3 text, compilable with Compile.
	Source string
	// Interactive marks programs the paper reports only static metrics
	// for (dom, postcard).
	Interactive bool
}

func fromBench(b bench.Benchmark) Benchmark {
	return Benchmark{
		Name:        b.Name,
		Description: b.Description,
		Source:      b.Source,
		Interactive: b.Interactive,
	}
}

// Benchmarks returns the ten-program suite in the paper's Table 4
// order, including the two interactive programs (dom, postcard).
func Benchmarks() []Benchmark {
	var out []Benchmark
	for _, b := range bench.All() {
		out = append(out, fromBench(b))
	}
	return out
}

// BenchmarkByName returns a suite benchmark or false — the lookup
// behind cmd/tbaa's -bench flag.
func BenchmarkByName(name string) (Benchmark, bool) {
	b, ok := bench.ByName(name)
	if !ok {
		return Benchmark{}, false
	}
	return fromBench(b), true
}
