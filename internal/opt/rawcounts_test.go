package opt_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tbaa/internal/alias"
	"tbaa/internal/bench"
	"tbaa/internal/driver"
	"tbaa/internal/limit"
)

var update = flag.Bool("update", false, "rewrite testdata/rawcounts.golden")

// TestRawCountsPinned pins the optimizer's and the limit study's raw
// counts on every stock benchmark, at every level in both worlds: what
// RLE hoists and eliminates, what PRE (run after RLE) inserts and
// eliminates, the SHA-256 of the printed IR after each pass, and the
// limit study's heap loads, redundant loads and categories after each
// pass. The published tables show a few of these configurations as
// rounded fractions; this golden shows them exactly. The limit study
// interprets the program, which is most of the test's time, so it runs
// at SMFieldTypeRefs and IPTypeRefs only. Refresh with go test -update.
func TestRawCountsPinned(t *testing.T) {
	levels := []alias.Level{
		alias.LevelTypeDecl,
		alias.LevelFieldTypeDecl,
		alias.LevelSMFieldTypeRefs,
		alias.LevelFSTypeRefs,
		alias.LevelIPTypeRefs,
	}
	var b strings.Builder
	for _, bm := range bench.All() {
		for _, level := range levels {
			for _, open := range []bool{false, true} {
				opts := alias.Options{Level: level, OpenWorld: open}
				prog, _, err := driver.Compile(bm.Name+".m3", bm.Source)
				if err != nil {
					t.Fatal(err)
				}
				env, err := driver.NewPassEnv(prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s %s open=%v\n", bm.Name, level, open)
				for _, pass := range []driver.Pass{driver.RLEPass{}, driver.PREPass{}} {
					res, err := driver.RunPasses(env, pass)
					if err != nil {
						t.Fatal(err)
					}
					r := res[0]
					fmt.Fprintf(&b, "  %-3s hoisted=%d inserted=%d eliminated=%d ir=%x\n",
						r.Pass, r.Hoisted, r.Inserted, r.Eliminated, sha256.Sum256([]byte(prog.String())))
					if level != alias.LevelSMFieldTypeRefs && level != alias.LevelIPTypeRefs {
						continue
					}
					rep, _, err := limit.Measure(prog, env.Oracle(), env.ModRef())
					if err != nil {
						t.Fatalf("%s %+v after %s: %v", bm.Name, opts, r.Pass, err)
					}
					fmt.Fprintf(&b, "      heap=%d redundant=%d", rep.HeapLoads, rep.Redundant)
					for c := limit.CatEncapsulated; c <= limit.CatRest; c++ {
						fmt.Fprintf(&b, " %s=%d", c, rep.ByCategory[c])
					}
					b.WriteString("\n")
				}
			}
		}
	}
	const golden = "testdata/rawcounts.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("raw counts drifted from %s:\n%s", golden, got)
	}
}
