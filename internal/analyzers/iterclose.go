package analyzers

import (
	"go/ast"
	"go/types"
)

// IterClose enforces the iterator lifecycle contract on both sides of the
// exec.Iterator interface (Open / NextBatch / Close — the executor's only
// operator contract):
//
//  1. An Iterator implementation whose struct holds child iterator or spool
//     fields (any field whose type implements Iterator or carries a niladic
//     Close/close method) must touch every such field in its own Close
//     method — by calling its Close/close, passing it to a helper, or
//     ranging over it (for slices of children). An input held through the
//     executor's cursor counts: cursor carries a niladic close. A forgotten child leaks the
//     subtree's buffers and, for memo producers, leaves a spool building
//     that is never abandoned, so later evaluations go private.
//
//  2. A function that obtains an iterator from a call (exec.Build and
//     friends) must either close it or hand it off (return it, store it in
//     a struct, pass it to another call). A variable whose only uses are
//     Open/NextBatch drives the iterator and then drops it on the floor.
//
// The check is per-function and presence-based, not path-sensitive: a Close
// inside a conditional satisfies it (memoIter closes its input only once
// opened). Genuinely externally-managed iterators take a justified
// //lint:ignore iterclose.
var IterClose = &Analyzer{
	Name: "iterclose",
	Doc:  "Iterator implementations must close child iterators; call sites must close or hand off obtained iterators",
	Run:  runIterClose,
}

func runIterClose(pass *Pass) error {
	iface := iteratorInterface(pass.Pkg)
	if iface == nil {
		return nil // no iterator contract in scope
	}
	checkCloseMethods(pass, iface)
	checkCallSites(pass, iface)
	return nil
}

// closableField reports whether a child field must be released by Close.
// Slices of closable children count; the element is what gets closed.
func closableField(t types.Type, iface *types.Interface, from *types.Package) bool {
	if s, ok := t.Underlying().(*types.Slice); ok {
		t = s.Elem()
	}
	if implementsIterator(t, iface) {
		return true
	}
	// Non-iterator helpers that own an iterator (cursor, result sinks): anything
	// with a niladic Close/close is a resource the parent owns. Plain data
	// types (tuples, stats, predicates) have no such method and are exempt.
	return closeMethodOf(t, from) != nil
}

// checkCloseMethods verifies rule 1 for every struct in the package that
// implements the Iterator interface and declares its own Close method.
func checkCloseMethods(pass *Pass, iface *types.Interface) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Close" || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			recvObj := receiverObject(pass, fd)
			if recvObj == nil {
				continue
			}
			named, ok := derefNamed(recvObj.Type())
			if !ok || !implementsIterator(named, iface) {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			released := releasedFields(pass, fd, recvObj)
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !closableField(f.Type(), iface, pass.Pkg) {
					continue
				}
				if !released[f.Name()] {
					pass.Reportf(fd.Name.Pos(), "%s.Close does not close child field %q (an %s)",
						named.Obj().Name(), f.Name(), typeLabel(f.Type(), iface))
				}
			}
		}
	}
}

// receiverObject resolves the declared receiver variable of a method; nil
// for anonymous receivers (which cannot close anything anyway).
func receiverObject(pass *Pass, fd *ast.FuncDecl) types.Object {
	names := fd.Recv.List[0].Names
	if len(names) != 1 {
		return nil
	}
	return pass.TypesInfo.Defs[names[0]]
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}

func typeLabel(t types.Type, iface *types.Interface) string {
	if s, ok := t.Underlying().(*types.Slice); ok {
		if implementsIterator(s.Elem(), iface) {
			return "iterator slice"
		}
	}
	if implementsIterator(t, iface) {
		return "iterator"
	}
	return "owned resource with a Close method"
}

// releasedFields scans a Close body for child fields the method releases:
// recv.F.Close()/recv.F.close() calls, recv.F passed as a call argument,
// or a range over recv.F whose body contains a Close call.
func releasedFields(pass *Pass, fd *ast.FuncDecl, recv types.Object) map[string]bool {
	released := make(map[string]bool)
	fieldOfRecv := func(e ast.Expr) (string, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != recv {
			return "", false
		}
		return sel.Sel.Name, true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Close" || sel.Sel.Name == "close") {
				if f, ok := fieldOfRecv(sel.X); ok {
					released[f] = true
				}
			}
			for _, arg := range node.Args {
				if f, ok := fieldOfRecv(arg); ok {
					released[f] = true
				}
			}
		case *ast.RangeStmt:
			f, ok := fieldOfRecv(node.X)
			if !ok {
				return true
			}
			closesElem := false
			ast.Inspect(node.Body, func(inner ast.Node) bool {
				if call, ok := inner.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Close" || sel.Sel.Name == "close") {
						closesElem = true
					}
				}
				return true
			})
			if closesElem {
				released[f] = true
			}
		}
		return true
	})
	return released
}

// checkCallSites verifies rule 2: in every function, a variable assigned
// from a call returning an Iterator must be closed or handed off. A use is
// a hand-off when the variable appears anywhere other than as the receiver
// of a method call — as a call argument, in a return, in a composite
// literal, on the right of an assignment.
func checkCallSites(pass *Pass, iface *types.Interface) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncCallSites(pass, fd.Body, iface)
		}
	}
}

// acquisition is one "v := someCall()" whose v is statically an iterator.
type acquisition struct {
	obj types.Object
	pos ast.Node
}

func checkFuncCallSites(pass *Pass, body *ast.BlockStmt, iface *types.Interface) {
	var acquired []acquisition
	record := func(id *ast.Ident) {
		if id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil || !implementsIterator(obj.Type(), iface) {
			return
		}
		acquired = append(acquired, acquisition{obj: obj, pos: id})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			if len(node.Rhs) == 1 && isRealCall(pass, node.Rhs[0]) {
				for _, lhs := range node.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id)
					}
				}
			}
		case *ast.ValueSpec:
			if len(node.Values) == 1 && isRealCall(pass, node.Values[0]) {
				for _, id := range node.Names {
					record(id)
				}
			}
		}
		return true
	})
	if len(acquired) == 0 {
		return
	}

	// Classify every use of each acquired variable. Idents consumed as the
	// receiver of a method call are neutral (Open/NextBatch) or closing (Close);
	// any other appearance hands the iterator off and discharges this
	// function's obligation.
	closed := make(map[types.Object]bool)
	escaped := make(map[types.Object]bool)
	methodRecv := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		for _, a := range acquired {
			if a.obj == obj {
				methodRecv[id] = true
				if sel.Sel.Name == "Close" || sel.Sel.Name == "close" {
					closed[obj] = true
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || methodRecv[id] {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		for _, a := range acquired {
			if a.obj == obj {
				escaped[obj] = true
			}
		}
		return true
	})
	reported := make(map[types.Object]bool)
	for _, a := range acquired {
		if closed[a.obj] || escaped[a.obj] || reported[a.obj] {
			continue
		}
		reported[a.obj] = true
		pass.Reportf(a.pos.Pos(), "iterator %q is never closed and never handed off (Close must be reachable on every path, including error returns)", a.obj.Name())
	}
}

// isRealCall reports whether e is a function or method call (not a type
// conversion): the source of a fresh iterator this function now owns.
func isRealCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return false
	}
	return true
}
