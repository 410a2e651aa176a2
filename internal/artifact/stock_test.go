package artifact

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
	"tbaa/internal/modref"
)

var update = flag.Bool("update", false, "rewrite testdata/stock.sha256")

// TestStockEncodingPinned pins the printed IR and the artifact payload
// of every stock benchmark to committed SHA-256 digests, so a change to
// the front end that alters either one cannot pass without a
// deliberate format version bump. Refresh with go test -update.
func TestStockEncodingPinned(t *testing.T) {
	var b strings.Builder
	for _, bm := range bench.All() {
		for _, level := range []alias.Level{alias.LevelTypeDecl, alias.LevelIPTypeRefs} {
			prog, _, err := driver.Compile(bm.Name+".m3", bm.Source)
			if err != nil {
				t.Fatal(err)
			}
			printed := sha256.Sum256([]byte(prog.String()))
			a := alias.New(prog, alias.Options{Level: level})
			var mrSnap *modref.Snapshot
			if level == alias.LevelIPTypeRefs {
				mrSnap = modref.ComputeWith(prog, modref.Config{RTA: true}).Snapshot()
			}
			payload, err := encodePayload(prog, a.Index(), a.Snapshot(), mrSnap)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s ir=%x payload=%x\n", bm.Name, level, printed, sha256.Sum256(payload))
		}
	}
	const golden = "testdata/stock.sha256"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("printed IR or artifact payload drifted from %s:\n%s", golden, got)
	}
}
