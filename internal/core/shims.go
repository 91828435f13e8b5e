package core

import "context"

// The engine's context-less convenience wrappers (Run, Query, Check,
// Stream) are generated from their *Context twins by one table-driven shim:
// each wrapper's body is exactly `return e.<Twin>(noCancel(), args...)`, so
// the library's entire no-cancellation surface funnels through a single
// root-context site. TestConvenienceShims walks convenienceShims by
// reflection and fails if a wrapper is missing or its signature drifts from
// its twin's (minus the leading context), so the table is load-bearing, not
// documentation.

// convenienceShims pairs every documented context-less wrapper with the
// *Context twin it shims to.
var convenienceShims = []struct {
	Wrapper, Twin string
}{
	{"Run", "RunContext"},
	{"Query", "QueryContext"},
	{"Check", "CheckContext"},
	{"Stream", "StreamContext"},
}

// noCancel returns the root context behind the convenience wrappers. It is
// the library's one context.Background() site: everything below the
// wrappers runs under the caller's context, so adding a fifth wrapper means
// adding a convenienceShims row, not a second root context.
func noCancel() context.Context {
	return context.Background()
}
