package par

import (
	"fmt"
	"testing"
)

// TestRunLowestError pins Run's contract at any worker count: every
// task runs, and the lowest-numbered failure is the error returned.
func TestRunLowestError(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		ran := make([]bool, 20)
		err := Run(workers, len(ran), func(i int) error {
			ran[i] = true
			if i == 7 || i == 13 {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7" {
			t.Errorf("workers=%d: error %v, want task 7", workers, err)
		}
		for i, ok := range ran {
			if !ok {
				t.Errorf("workers=%d: task %d never ran", workers, i)
			}
		}
	}
	if err := Run(4, 0, func(int) error { return fmt.Errorf("no tasks") }); err != nil {
		t.Errorf("zero tasks: %v", err)
	}
}
