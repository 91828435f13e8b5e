// Command lintrepro is the repository's invariant multichecker: it runs
// the internal/analyzers suite (iterclose, govcharge, errtaxonomy,
// wiredrift) over Go packages and exits non-zero on findings.
//
//	lintrepro [-only a,b] [-list] [packages...]   # defaults to ./...
//
// Findings print as file:line:col: analyzer: message on stderr, matching
// go vet's own format, so editors and CI parse them the same way. Exit
// status is 0 on a clean run, 1 on findings, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("lintrepro", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintrepro:", err)
		return 2
	}
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analyzers.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintrepro:", err)
		return 2
	}
	findings := 0
	for _, pkg := range pkgs {
		diags, err := analyzers.CheckPackage(pkg, suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lintrepro:", err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, relativize(d))
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "lintrepro: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

func selectAnalyzers(only string) ([]*analyzers.Analyzer, error) {
	suite := analyzers.All()
	if only == "" {
		return suite, nil
	}
	byName := make(map[string]*analyzers.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var picked []*analyzers.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			var have []string
			for _, s := range suite {
				have = append(have, s.Name)
			}
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(have, ", "))
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// relativize shortens absolute paths under the working directory, matching
// go vet's output style.
func relativize(d analyzers.Diagnostic) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
	}
	return d.String()
}
