// Package examples holds no code of its own: each subdirectory is a
// runnable program, and this test is what puts them under `go test
// ./...`.
package examples

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	// The examples' one dependency. The test only shells out to them, so
	// without this import (and the source listing below) `go test` would
	// keep serving a cached pass after the code they run had changed.
	_ "repro/storm"
)

// TestExamplesRun builds and runs every example in this directory once:
// each must exit 0 and print something. The list is the directory
// itself, so a new example is covered without being named here.
func TestExamplesRun(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if srcs, _ := filepath.Glob(filepath.Join(e.Name(), "*.go")); !e.IsDir() || len(srcs) == 0 {
			continue
		}
		ran++
		t.Run(e.Name(), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./"+e.Name())
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", e.Name(), err, stderr.Bytes())
			}
			if stdout.Len() == 0 {
				t.Fatalf("go run ./examples/%s printed nothing", e.Name())
			}
		})
	}
	if ran == 0 {
		t.Fatal("no example directories found")
	}
}
