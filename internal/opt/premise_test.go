package opt_test

import (
	"fmt"
	"testing"

	"tbaa/internal/alias"
	"tbaa/internal/bench"
	"tbaa/internal/driver"
	"tbaa/internal/ir"
	"tbaa/internal/randprog"
)

// TestStorePathShapes pins two facts about lowered and optimized IR that
// let one kill rule and one class table serve RLE, PRE, hoisting and the
// limit study:
//
//   - only an OpLoad carries a dope-vector path, so it makes no
//     difference whether a class table drops dope paths from loads alone
//     or from every load and store;
//   - an OpStore's selector is its path's last selector, and an
//     OpStoreVarField's path never ends in a dereference, so "a store
//     through a location" reads the same off the instruction as off its
//     path.
//
// It checks both after every pass of Devirt+MinvInline+RLE+PRE on the
// stock benchmarks (with lower-vm) at every level and on random
// programs (TBAA_DIFF_SEEDS overrides their number).
func TestStorePathShapes(t *testing.T) {
	levels := []alias.Level{
		alias.LevelTypeDecl,
		alias.LevelFieldTypeDecl,
		alias.LevelSMFieldTypeRefs,
		alias.LevelFSTypeRefs,
		alias.LevelIPTypeRefs,
	}
	type program struct{ name, src string }
	var progs []program
	bms := bench.All()
	if vm, ok := bench.ByName("lower-vm"); ok {
		bms = append(bms, vm)
	}
	for _, bm := range bms {
		progs = append(progs, program{bm.Name, bm.Source})
	}
	for k := 0; k < parallelSeeds(t); k++ {
		seed := int64(93000 + k)
		progs = append(progs, program{fmt.Sprintf("seed %d", seed), randprog.Generate(seed, parallelConfig)})
	}
	passes := []driver.Pass{driver.DevirtPass{}, driver.MinvInlinePass{}, driver.RLEPass{}, driver.PREPass{}}
	checked := 0
	for i, pr := range progs {
		for j, level := range levels {
			if i >= len(bms) && j != i%len(levels) {
				continue // random programs spread over the levels
			}
			prog, _, err := driver.Compile(pr.name+".m3", pr.src)
			if err != nil {
				t.Fatalf("%s: %v", pr.name, err)
			}
			env, err := driver.NewPassEnv(prog, alias.Options{Level: level})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkStorePaths(prog); err != nil {
				t.Fatalf("%s %s after lowering: %v", pr.name, level, err)
			}
			for _, pass := range passes {
				if _, err := driver.RunPasses(env, pass); err != nil {
					t.Fatal(err)
				}
				if err := checkStorePaths(prog); err != nil {
					t.Fatalf("%s %s after %s: %v", pr.name, level, pass.Name(), err)
				}
			}
			checked++
		}
	}
	t.Logf("checked %d pipelines", checked)
}

// checkStorePaths reports the first instruction that breaks either fact
// TestStorePathShapes pins.
func checkStorePaths(prog *ir.Program) error {
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.AP == nil {
					continue
				}
				switch in.Op {
				case ir.OpLoadVarField, ir.OpStore, ir.OpStoreVarField:
					if in.AP.IsDope() {
						return fmt.Errorf("%s %s: op %d carries dope path %s", p.Name, b.Name, in.Op, in.AP)
					}
				}
				last := in.AP.Last()
				switch {
				case in.Op == ir.OpStore && (last == nil || last.Kind != in.Sel.Kind):
					return fmt.Errorf("%s %s: store selector %v differs from the last selector of %s", p.Name, b.Name, in.Sel.Kind, in.AP)
				case in.Op == ir.OpStoreVarField && last != nil && last.Kind == ir.SelDeref:
					return fmt.Errorf("%s %s: variable-field store path %s ends in a dereference", p.Name, b.Name, in.AP)
				}
			}
		}
	}
	return nil
}
