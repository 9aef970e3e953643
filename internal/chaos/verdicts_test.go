package chaos

import (
	"bufio"
	"fmt"
	"os"
	"testing"
)

// pinnedVerdicts holds one "seed digest" line per scenario
// GenScenario(1…1000) yields, written by the code these tests pin.
// A change that keeps every behaviour leaves each line as it is; one
// that alters a run on purpose rewrites the file from verdictLine.
const pinnedVerdicts = "testdata/verdicts.txt"

// verdictLine is the pinned line of GenScenario(seed).
func verdictLine(seed uint64) string {
	return fmt.Sprintf("%d %s", seed, RunScenario(GenScenario(seed)).Digest)
}

// TestVerdictsPinned reruns every pinned scenario and names the first
// seed whose verdict digest differs from the checked-in one.
func TestVerdictsPinned(t *testing.T) {
	f, err := os.Open(pinnedVerdicts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	seed := uint64(0)
	for sc.Scan() {
		seed++
		if got := verdictLine(seed); got != sc.Text() {
			t.Fatalf("GenScenario(%d): verdict line %q, pinned %q", seed, got, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seed != 1000 {
		t.Fatalf("%s pins %d scenarios, want 1000", pinnedVerdicts, seed)
	}
}
