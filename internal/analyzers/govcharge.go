package analyzers

import (
	"go/ast"
	"go/types"
)

// GovCharge enforces the PR 3 resource-accounting contract: every
// materialization point — a statement that grows a tuple buffer or a
// build/dedup table — must sit in a function that charges the governor.
//
// A materialization is:
//   - append(s, ...) where s buffers tuples (its element type is, or
//     contains, a named Tuple type — the join build's keyed wrapper
//     included);
//   - m[k] = v where m is a map whose value type buffers tuples, is
//     struct{} (a membership set retains its keys), or is itself such a
//     map (nested group tables).
//
// The dominance requirement is approximated per enclosing function: some
// call to the charge family (Governor.charge/chargeOp/ChargeTuples/
// ChargeBytesN, Context.chargeTuple/chargeBatch/chargeN/ChargeTuple, or
// Context.drain, which charges every block before its sink sees it) must
// appear in the same top-level
// function as the materialization — closures included, since emit-style
// helpers and drain sinks capture the worker context. Buffers charged by their caller (the
// shared tupleSet, the memo spool's append half) carry a justified
// //lint:ignore govcharge at the materialization site.
//
// The analyzer arms itself only in packages that know about the governor:
// ones that define or import a Governor type. Everywhere else (parser,
// algebra, storage) buffering is plan-shape-bounded and exempt by design.
var GovCharge = &Analyzer{
	Name: "govcharge",
	Doc:  "materialization points (tuple buffers, build/dedup tables) must be governed by a charge call in the same function",
	Run:  runGovCharge,
}

// chargeFamily are the method names that account materialized tuples
// against the governor, on the Governor itself or through a Context.
var chargeFamily = map[string]bool{
	"charge":      true,
	"chargeOp":    true,
	"chargeTuple": true,
	"chargeBatch": true,
	"chargeN":     true,
	"ChargeTuple": true,
	"ChargeBatch": true,
	// Bulk (block-granular) governor entry points.
	"ChargeTuples": true,
	"ChargeBytesN": true,
	// The blocking operators' input loop: charges each block to the named
	// op, then hands it to the sink closure that buffers it.
	"drain": true,
}

func runGovCharge(pass *Pass) error {
	if !governorInScope(pass.Pkg) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncCharges(pass, fd)
		}
	}
	return nil
}

// governorInScope reports whether the package defines or imports a type
// named Governor.
func governorInScope(pkg *types.Package) bool {
	if _, ok := pkg.Scope().Lookup("Governor").(*types.TypeName); ok {
		return true
	}
	for _, imp := range pkg.Imports() {
		if _, ok := imp.Scope().Lookup("Governor").(*types.TypeName); ok {
			return true
		}
	}
	return false
}

func checkFuncCharges(pass *Pass, fd *ast.FuncDecl) {
	charges := false
	var mats []ast.Node
	var matDesc []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok && chargeFamily[sel.Sel.Name] {
				charges = true
			}
			if id, ok := node.Fun.(*ast.Ident); ok && id.Name == "append" {
				if tv, ok := pass.TypesInfo.Types[node]; ok {
					if s, ok := tv.Type.Underlying().(*types.Slice); ok && isTupleLike(s.Elem()) {
						mats = append(mats, node)
						matDesc = append(matDesc, "append to a tuple buffer")
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				idx, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				tv, ok := pass.TypesInfo.Types[idx.X]
				if !ok {
					continue
				}
				m, ok := tv.Type.Underlying().(*types.Map)
				if !ok || !isBufferValue(m.Elem(), 0) {
					continue
				}
				mats = append(mats, idx)
				matDesc = append(matDesc, "insert into a build/dedup table")
			}
		}
		return true
	})
	if charges {
		return
	}
	for i, m := range mats {
		pass.Reportf(m.Pos(), "%s in %s is not governed: no charge-family call (chargeTuple/chargeBatch/chargeN/charge) in this function", matDesc[i], fd.Name.Name)
	}
}

// isBufferValue reports whether a map with this value type retains tuples
// or keys: tuple-like values, struct{} membership sets, and nested maps of
// either.
func isBufferValue(t types.Type, depth int) bool {
	if depth > 3 {
		return false
	}
	if isTupleLike(t) || isEmptyStruct(t) {
		return true
	}
	if m, ok := t.Underlying().(*types.Map); ok {
		return isBufferValue(m.Elem(), depth+1)
	}
	return false
}
