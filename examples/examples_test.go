// Package examples_test runs every example program end to end. go build
// only compiles them; this test builds each one and requires it to exit
// 0, each in a fresh working directory (the telemetry example writes
// its files into the current directory).
package examples_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example program (about 10 s)")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command to build the examples: %v", err)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if out, err := exec.Command(gobin, "build", "-o", bin+string(filepath.Separator), "./...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ran := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		ran++
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Dir = t.TempDir()
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
			if len(out) == 0 {
				t.Errorf("%s printed nothing", name)
			}
		})
	}
	if ran != 7 {
		t.Errorf("ran %d examples, want 7", ran)
	}
}
