package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak enforces the goroutine-lifecycle contract the concurrent tiers
// (batcher collector, batch goroutines, shutdown drain) follow by design —
// the query executor itself starts none: every `go` statement outside package main must be tied
// to a lifecycle the spawner (or anyone) can wait on or cancel. Untracked
// goroutines are how a service leaks under churn — the chaos suite's
// CheckGoroutines catches them at runtime, this pass catches them at lint
// time.
//
// A spawned function counts as tied when its body — or the body of a
// same-package function/method it calls, two levels deep — contains any of:
//
//   - a Done() call on a sync.WaitGroup (the Add/Done pair; the batcher's
//     per-batch goroutines);
//   - a receive from a channel, directly, in a select case, or by ranging
//     over it (the batcher collector's quit/done select, slot tokens);
//   - a Done() or Err() call on a context.Context (cancellation-aware
//     workers).
//
// Spawning a function whose body the pass cannot see (another package's, or
// a function value) is a finding: if the lifecycle lives elsewhere, say so
// with a justified //lint:ignore goroleak. Package main is exempt — a
// daemon's top-level goroutines live exactly as long as the process — and
// test files are skipped by the loader.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every go statement outside package main must be tied to a lifecycle (WaitGroup Done, quit/done channel receive, or context cancellation)",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	decls := packageFuncDecls(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !spawnTied(pass, gs.Call, decls) {
				pass.Reportf(gs.Pos(), "goroutine has no lifecycle tie: the spawned function neither signals a WaitGroup, receives from a quit/done channel, nor watches a context")
			}
			return true
		})
	}
	return nil
}

// packageFuncDecls indexes every function/method declaration by its
// types.Func object, so a `go recv.method()` spawn can be followed into the
// method body.
func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// spawnTied reports whether the go statement's callee has lifecycle
// evidence: a function literal is inspected directly, a named same-package
// function/method through its declaration.
func spawnTied(pass *Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) bool {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return bodyTied(pass, lit.Body, decls, make(map[*types.Func]bool), 0)
	}
	if fn := calleeFunc(pass, call); fn != nil {
		if fd, ok := decls[fn]; ok && fd.Body != nil {
			return bodyTied(pass, fd.Body, decls, map[*types.Func]bool{fn: true}, 0)
		}
	}
	return false
}

// calleeFunc resolves the called function object for ident and selector
// callees (nil for indirect calls through function values).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// bodyTied scans one function body for lifecycle evidence, recursing up to
// two levels into same-package callees (the spawn-helper-indirection case:
// go b.loop() where loop holds the select).
func bodyTied(pass *Pass, body *ast.BlockStmt, decls map[*types.Func]*ast.FuncDecl, visited map[*types.Func]bool, depth int) bool {
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch node := n.(type) {
		case *ast.UnaryExpr:
			// <-ch anywhere: a direct receive or a select comm clause.
			if node.Op == token.ARROW && isChannel(pass, node.X) {
				tied = true
			}
		case *ast.RangeStmt:
			// for v := range ch terminates when the channel closes.
			if isChannel(pass, node.X) {
				tied = true
			}
		case *ast.CallExpr:
			sel, ok := node.Fun.(*ast.SelectorExpr)
			if !ok {
				if depth < 2 {
					if fn := calleeFunc(pass, node); fn != nil && !visited[fn] {
						if fd, ok := decls[fn]; ok && fd.Body != nil {
							visited[fn] = true
							if bodyTied(pass, fd.Body, decls, visited, depth+1) {
								tied = true
							}
						}
					}
				}
				return !tied
			}
			recv := sel.X
			switch sel.Sel.Name {
			case "Done":
				if isTypeFromPackage(pass, recv, "sync", "WaitGroup") || isTypeFromPackage(pass, recv, "context", "Context") {
					tied = true
				}
			case "Err":
				if isTypeFromPackage(pass, recv, "context", "Context") {
					tied = true
				}
			}
			if !tied && depth < 2 {
				if fn := calleeFunc(pass, node); fn != nil && !visited[fn] {
					if fd, ok := decls[fn]; ok && fd.Body != nil {
						visited[fn] = true
						if bodyTied(pass, fd.Body, decls, visited, depth+1) {
							tied = true
						}
					}
				}
			}
		}
		return !tied
	})
	return tied
}

// isChannel reports whether e's type is (or points to) a channel.
func isChannel(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	_, ok = t.(*types.Chan)
	return ok
}

// isTypeFromPackage reports whether e's type (through pointers and aliases)
// is the named type pkgPath.name.
func isTypeFromPackage(pass *Pass, e ast.Expr, pkgPath, name string) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return typeIsNamed(tv.Type, pkgPath, name)
}

func typeIsNamed(t types.Type, pkgPath, name string) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
