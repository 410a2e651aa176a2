package alias

import (
	"strings"
	"testing"
)

// TestOptionsValidate pins the construction-time rejection of
// out-of-range levels: every valid level passes, everything else is
// refused with a message that names the valid range.
func TestOptionsValidate(t *testing.T) {
	for _, lvl := range []Level{LevelTypeDecl, LevelFieldTypeDecl, LevelSMFieldTypeRefs, LevelFSTypeRefs, LevelIPTypeRefs} {
		if err := (Options{Level: lvl}).Validate(); err != nil {
			t.Errorf("Options{Level: %v}.Validate() = %v, want nil", lvl, err)
		}
	}
	for _, lvl := range []Level{-1, 5, 42} {
		err := (Options{Level: lvl}).Validate()
		if err == nil {
			t.Errorf("Options{Level: %d}.Validate() = nil, want error", int(lvl))
			continue
		}
		for _, want := range []string{"out of range", "TypeDecl", "SMFieldTypeRefs"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Validate error %q does not mention %q", err, want)
			}
		}
	}
}

// TestNewRejectsInvalidLevel: New must not silently misbehave on an
// out-of-range level; it panics with the Validate error.
func TestNewRejectsInvalidLevel(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New with Level 42 did not panic")
		}
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("New panicked with %v, want the Validate error", r)
		}
	}()
	New(nil, Options{Level: 42})
}
