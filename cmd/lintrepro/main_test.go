package main

import (
	"testing"

	"repro/internal/analyzers"
)

// The smoke tests exercise run() in-process: the entry point is a pure
// function of its arguments plus the working directory, which for a test
// binary is this package's source directory — inside the module, so
// import-path patterns resolve.

func TestListAnalyzers(t *testing.T) {
	if got := run([]string{"-list"}); got != 0 {
		t.Fatalf("-list exited %d, want 0", got)
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	if got := run([]string{"-only", "bogus"}); got != 2 {
		t.Fatalf("-only bogus exited %d, want 2", got)
	}
}

// TestCleanTree is the gate the CI check depends on: the production tree
// must lint clean.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	if got := run([]string{"repro/internal/...", "repro/cmd/..."}); got != 0 {
		t.Fatalf("lintrepro over the tree exited %d, want 0 (tree has findings)", got)
	}
}

// TestSeededBadFixtures pins the other half of the gate: each seeded-bad
// fixture must make the checker exit non-zero, so a regression that stops
// an analyzer from firing is caught. The fixture list is the suite itself
// plus the suppression-mechanics fixture, so a pass added without a
// fixture fails here.
func TestSeededBadFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("loads fixture packages through go list")
	}
	fixtures := []string{"directive"}
	for _, a := range analyzers.All() {
		fixtures = append(fixtures, a.Name)
	}
	for _, fx := range fixtures {
		pattern := "repro/internal/analyzers/testdata/src/" + fx
		if got := run([]string{pattern}); got != 1 {
			t.Errorf("lintrepro %s exited %d, want 1 (seeded findings not reported)", fx, got)
		}
	}
}
