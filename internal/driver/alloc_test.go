package driver

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"tbaa/internal/alias"
	"tbaa/internal/lower"
	"tbaa/internal/parser"
	"tbaa/internal/randprog"
	"tbaa/internal/sema"
)

// The front end's allocation, in bytes per unit of input, bounded so
// a regression shows on any host: the bytes a deterministic build
// allocates do not depend on the machine's speed or core count. A
// streamed token and exact-size instruction arrays give about 13
// bytes per source byte and 590 bytes per instruction on the 20k-line
// module below; buffering every token and growing each block's
// instruction slice by appending took about 121 and 1086.
const (
	maxParseBytesPerSrcByte = 25
	maxLowerBytesPerInstr   = 700
)

// heapAllocs returns the bytes the process has allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestFrontendAllocation measures what parse and lower allocate on a
// generated 20k-line module. It must not run in parallel with other
// tests: the counter is process-wide.
func TestFrontendAllocation(t *testing.T) {
	src := randprog.GenerateScale(1, randprog.ScaleConfigForLines(20_000))
	runtime.GC()

	before := heapAllocs()
	m, err := parser.Parse("scale.m3", src)
	parsed := heapAllocs() - before
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sema.Check(m)
	if err != nil {
		t.Fatal(err)
	}
	sp.Universe.Precompute()

	before = heapAllocs()
	prog := lower.Lower(sp)
	lowered := heapAllocs() - before
	instrs := 0
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			instrs += len(b.Instrs)
		}
	}

	perByte := float64(parsed) / float64(len(src))
	perInstr := float64(lowered) / float64(instrs)
	t.Logf("parse: %d bytes for %d source bytes (%.1f per byte); lower: %d bytes for %d instrs (%.0f per instr)",
		parsed, len(src), perByte, lowered, instrs, perInstr)
	if perByte > maxParseBytesPerSrcByte {
		t.Errorf("parse allocates %.1f bytes per source byte, bound %d", perByte, maxParseBytesPerSrcByte)
	}
	if perInstr > maxLowerBytesPerInstr {
		t.Errorf("lower allocates %.0f bytes per instruction, bound %d", perInstr, maxLowerBytesPerInstr)
	}
}

// maxFlowBytesPerInstr bounds what one flow-sensitive CountPairs
// allocates, per lowered instruction, on the 20k-line module below. The
// sweep solves every procedure's flow facts once, so the bound covers
// the whole FSTypeRefs/IPTypeRefs dataflow. Solving on numbered slots
// with pooled scratch gives about 52 bytes per instruction; cloning two
// maps per block transfer and rendering every path on every transfer
// took about 344.
const maxFlowBytesPerInstr = 172

// TestFlowFactsAllocation measures one CountPairs on a fresh
// IPTypeRefs oracle, built through a PassEnv so the call summaries are
// wired in before any procedure is solved. Like TestFrontendAllocation
// it must not run in parallel with other tests.
func TestFlowFactsAllocation(t *testing.T) {
	src := randprog.GenerateScale(1, randprog.ScaleConfigForLines(20_000))
	prog, _, err := Compile("scale.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewPassEnv(prog, alias.Options{Level: alias.LevelIPTypeRefs})
	if err != nil {
		t.Fatal(err)
	}
	o := env.Oracle()
	instrs := 0
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			instrs += len(b.Instrs)
		}
	}
	runtime.GC()

	before := heapAllocs()
	pc := alias.CountPairs(prog, o)
	swept := heapAllocs() - before

	perInstr := float64(swept) / float64(instrs)
	t.Logf("CountPairs %+v: %d bytes for %d instrs (%.0f per instr)", pc, swept, instrs, perInstr)
	if perInstr > maxFlowBytesPerInstr {
		t.Errorf("CountPairs allocates %.0f bytes per instruction, bound %d", perInstr, maxFlowBytesPerInstr)
	}
}
