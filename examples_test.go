package mfpa

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// exampleHeadlines maps each program under examples/ to a line its
// standard output must contain.
var exampleHeadlines = map[string]string{
	"agent":       "fleet side: trained RF",
	"collector":   "parsed 32 events",
	"datasetio":   "re-imported",
	"fleetops":    "drift begins day",
	"lookahead":   "== TPR vs lookahead window (Fig 19) ==",
	"quickstart":  "MFPA (RF on SFWB, vendor I)",
	"vendorstudy": "== Portability across vendors (SFWB + RF) ==",
}

// TestExamplesRun builds every examples/* program and runs it to
// completion: each must exit 0 and print its headline line.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build examples: %v\n%s", err, out)
	}
	seen := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		seen++
		t.Run(name, func(t *testing.T) {
			headline, ok := exampleHeadlines[name]
			if !ok {
				t.Fatalf("examples/%s has no headline in exampleHeadlines", name)
			}
			cmd := exec.Command(filepath.Join(dir, name))
			cmd.Dir = dir
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("examples/%s: %v\nstderr:\n%s", name, err, stderr.String())
			}
			if !strings.Contains(stdout.String(), headline) {
				t.Fatalf("examples/%s: stdout lacks %q:\n%s", name, headline, stdout.String())
			}
		})
	}
	if seen != len(exampleHeadlines) {
		t.Fatalf("%d example directories, %d headlines", seen, len(exampleHeadlines))
	}
}
