package analyzers

// An analysistest-style harness without golang.org/x/tools: fixtures under
// testdata/src/<name> are loaded through the same go list + gc-importer
// pipeline production runs use, and expectations are trailing comments of
// the form
//
//	// want `regexp` [want `regexp` ...]
//
// on the line the diagnostic lands on. Every diagnostic must match a want
// on its line, and every want must be consumed by a diagnostic.

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

var wantRe = regexp.MustCompile("want `([^`]*)`")

type wantExpectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

func collectWants(t *testing.T, pkg *Package) []*wantExpectation {
	t.Helper()
	var wants []*wantExpectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &wantExpectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runAnalysisTest is the golden-test driver: one analyzer over one fixture,
// with suppression handling live (CheckPackage), checked against the
// fixture's want comments.
func runAnalysisTest(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	diags, err := CheckPackage(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.used && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no %s diagnostic matching `%s`", w.file, w.line, a.Name, w.re)
		}
	}
}

func TestIterClose(t *testing.T)   { runAnalysisTest(t, IterClose, "iterclose") }
func TestGovCharge(t *testing.T)   { runAnalysisTest(t, GovCharge, "govcharge") }
func TestErrTaxonomy(t *testing.T) { runAnalysisTest(t, ErrTaxonomy, "errtaxonomy") }
func TestWireDrift(t *testing.T)   { runAnalysisTest(t, WireDrift, "wiredrift") }

// TestUnjustifiedDirective checks the suppression mechanics directly: a
// bare //lint:ignore must not silence the finding it covers and must be
// reported itself, and a justified directive that suppresses nothing must
// be reported as stale.
func TestUnjustifiedDirective(t *testing.T) {
	pkg := loadFixture(t, "directive")
	diags, err := CheckPackage(pkg, All())
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, fmt.Sprintf("%s: %s", d.Analyzer, d.Message))
	}
	joined := strings.Join(msgs, "\n")
	if len(diags) != 4 {
		t.Fatalf("got %d diagnostics, want 4 (unjustified directive + unsuppressed finding + stale waiver + unknown analyzer name):\n%s", len(diags), joined)
	}
	if !strings.Contains(joined, "lint:ignore needs a justification") {
		t.Errorf("missing unjustified-directive finding:\n%s", joined)
	}
	if !strings.Contains(joined, `iterator "it" is never closed`) {
		t.Errorf("bare directive suppressed the finding it covers:\n%s", joined)
	}
	if !strings.Contains(joined, "stale lint:ignore: no iterclose finding here to suppress") {
		t.Errorf("missing stale-waiver finding:\n%s", joined)
	}
	if !strings.Contains(joined, `lint:ignore names unknown analyzer "iterclos"`) {
		t.Errorf("missing unknown-analyzer finding:\n%s", joined)
	}
}

// TestSuiteStableOrder pins the suite composition the docs and lintrepro
// -list advertise.
func TestSuiteStableOrder(t *testing.T) {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	got := strings.Join(names, " ")
	if got != "iterclose govcharge errtaxonomy wiredrift" {
		t.Fatalf("suite order changed: %s", got)
	}
}
