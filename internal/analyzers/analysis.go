// Package analyzers is an invariant-enforcing static-analysis suite for
// this repository, in the mold of golang.org/x/tools/go/analysis but built
// on the standard library alone (the build environment is hermetic: no
// module downloads). It ships four passes that machine-check contracts the
// engine's correctness rests on, each one a bug class the tests do not
// catch (DESIGN.md §7 records the mutation that shows it):
//
//   - iterclose   — exec.Iterator implementations propagate Close to every
//     child iterator / spool field, and call sites that obtain an iterator
//     close it (or hand it off);
//   - govcharge   — materialization points (tuple-slice appends, build and
//     dedup table inserts) sit in functions that charge the resource
//     governor (the PR 3 accounting contract);
//   - errtaxonomy — packages that define a typed error family only let the
//     family escape their exported functions, and error wrapping uses %w;
//   - wiredrift   — the JSON wire schema served by /stats (core.Snapshot
//     and the service stats types) stays in sync with the counter list in
//     scripts/benchcmp.sh and the stats-schema table in README.md.
//
// The passes are deliberately syntactic-plus-types: they check what one
// function can prove about itself. Flow-sensitive exceptions — a buffer the
// caller charged, an iterator a registry closes — are recorded in the code
// with a justified suppression:
//
//	//lint:ignore <analyzer> <justification>
//
// on the flagged line or the line directly above it. The justification is
// mandatory; a bare //lint:ignore is itself a finding, so the gate cannot
// rot into a pile of silent waivers. Waivers also cannot outlive the code
// they excused: a justified directive that no longer suppresses any finding
// of an analyzer that ran is reported as stale.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant check. Run inspects a type-checked package
// through the Pass and reports findings; it returns an error only for
// internal failures, never for findings.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns the full suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{IterClose, GovCharge, ErrTaxonomy, WireDrift}
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// suppression is one parsed //lint:ignore directive. usedBy records, per
// analyzer name, whether the directive actually suppressed a finding — the
// stale-suppression audit reports justified directives that suppress
// nothing.
type suppression struct {
	pos           token.Position
	analyzers     map[string]bool
	justification string
	usedBy        map[string]bool
}

// covers reports whether the directive names the analyzer.
func (s *suppression) covers(name string) bool { return s.analyzers[name] }

// suppressionIndex maps file:line to the directives that apply there. A
// directive applies to its own line (trailing comment) and to the line
// directly below it (a comment of its own above the flagged statement).
type suppressionIndex struct {
	byLine map[string][]*suppression
	all    []*suppression
}

func lineKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// scanSuppressions collects every //lint:ignore directive in the files.
func scanSuppressions(fset *token.FileSet, files []*ast.File) *suppressionIndex {
	idx := &suppressionIndex{byLine: make(map[string][]*suppression)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ignore"))
				name, justification, _ := strings.Cut(rest, " ")
				s := &suppression{
					pos:           fset.Position(c.Pos()),
					analyzers:     make(map[string]bool),
					justification: strings.TrimSpace(justification),
					usedBy:        make(map[string]bool),
				}
				for _, n := range strings.Split(name, ",") {
					if n = strings.TrimSpace(n); n != "" {
						s.analyzers[n] = true
					}
				}
				idx.all = append(idx.all, s)
				for _, line := range []int{s.pos.Line, s.pos.Line + 1} {
					k := lineKey(s.pos.Filename, line)
					idx.byLine[k] = append(idx.byLine[k], s)
				}
			}
		}
	}
	return idx
}

// suppressor returns the justified directive covering the diagnostic, if
// any. Directives without a justification never suppress: they are findings.
func (idx *suppressionIndex) suppressor(d Diagnostic) *suppression {
	for _, s := range idx.byLine[lineKey(d.Pos.Filename, d.Pos.Line)] {
		if s.covers(d.Analyzer) && s.justification != "" {
			return s
		}
	}
	return nil
}

// CheckPackage runs the analyzers over one loaded package and returns the
// surviving findings: suppressed diagnostics are dropped, every unjustified
// //lint:ignore naming one of the analyzers is itself reported, and so is
// every justified directive that suppressed nothing (a stale waiver) or
// that names an analyzer the suite does not know.
func CheckPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	idx := scanSuppressions(pkg.Fset, pkg.Files)
	ran := make(map[string]bool, len(analyzers))
	var out []Diagnostic
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
		for _, d := range pass.diags {
			if s := idx.suppressor(d); s != nil {
				s.usedBy[d.Analyzer] = true
				continue
			}
			out = append(out, d)
		}
		for _, s := range idx.all {
			if s.covers(a.Name) && s.justification == "" {
				out = append(out, Diagnostic{
					Pos:      s.pos,
					Analyzer: a.Name,
					Message:  "lint:ignore needs a justification after the analyzer name",
				})
			}
		}
	}
	// Stale-suppression audit: a justified directive must earn its keep. For
	// every analyzer it names that actually ran, it must have suppressed at
	// least one finding; otherwise the code it excused has moved on and the
	// waiver is dead weight (or worse, hiding a typo in the analyzer name).
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, s := range idx.all {
		if s.justification == "" {
			continue // already reported as unjustified above
		}
		for name := range s.analyzers {
			if !known[name] {
				out = append(out, Diagnostic{
					Pos:      s.pos,
					Analyzer: "directive",
					Message:  fmt.Sprintf("lint:ignore names unknown analyzer %q: the directive suppresses nothing", name),
				})
				continue
			}
			if ran[name] && !s.usedBy[name] {
				out = append(out, Diagnostic{
					Pos:      s.pos,
					Analyzer: name,
					Message:  fmt.Sprintf("stale lint:ignore: no %s finding here to suppress — fix the directive or delete it", name),
				})
			}
		}
	}
	SortDiagnostics(out)
	return out, nil
}

// SortDiagnostics orders findings by file, line, column, analyzer, message.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// ---- shared type helpers ----

// isTupleLike reports whether buffering values of type t buffers tuples: t
// is (or contains, through slices, arrays, pointers and struct fields) a
// named type called Tuple. The join build's keyed{t Tuple; h uint64}
// wrapper is the motivating indirect case.
func isTupleLike(t types.Type) bool { return tupleLike(t, 0) }

func tupleLike(t types.Type, depth int) bool {
	if depth > 4 {
		return false
	}
	switch u := t.(type) {
	case *types.Named:
		if u.Obj().Name() == "Tuple" {
			return true
		}
		return tupleLike(u.Underlying(), depth+1)
	case *types.Alias:
		return tupleLike(types.Unalias(u), depth)
	case *types.Slice:
		return tupleLike(u.Elem(), depth+1)
	case *types.Array:
		return tupleLike(u.Elem(), depth+1)
	case *types.Pointer:
		return tupleLike(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if tupleLike(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

// isEmptyStruct reports whether t is struct{} — the value type of a
// membership set, whose inserts buffer their keys.
func isEmptyStruct(t types.Type) bool {
	s, ok := t.Underlying().(*types.Struct)
	return ok && s.NumFields() == 0
}

// closeMethodOf returns the niladic Close or close method in t's (or *t's)
// method set, if any. from is the package doing the lookup, so unexported
// close methods on same-package types are visible.
func closeMethodOf(t types.Type, from *types.Package) *types.Func {
	for _, name := range []string{"Close", "close"} {
		obj, _, _ := types.LookupFieldOrMethod(t, true, from, name)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() == 0 && sig.Results().Len() == 0 {
			return fn
		}
	}
	return nil
}

// iteratorInterface finds the package's Iterator contract: a defined
// interface type named Iterator with Close in its method set, declared in
// the package itself or exported by a direct import. nil when the package
// has no iterator contract in scope.
func iteratorInterface(pkg *types.Package) *types.Interface {
	lookup := func(p *types.Package) *types.Interface {
		obj := p.Scope().Lookup("Iterator")
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return nil
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			return nil
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Close" {
				return iface
			}
		}
		return nil
	}
	if iface := lookup(pkg); iface != nil {
		return iface
	}
	for _, imp := range pkg.Imports() {
		if iface := lookup(imp); iface != nil {
			return iface
		}
	}
	return nil
}

// implementsIterator reports whether t or *t satisfies the interface.
func implementsIterator(t types.Type, iface *types.Interface) bool {
	if iface == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}
