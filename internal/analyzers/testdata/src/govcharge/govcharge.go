// Package govcharge is a seeded-bad fixture for the govcharge analyzer:
// the local Governor type arms the pass, and the functions below mix
// governed and ungoverned materialization points plus a justified
// caller-charges suppression.
package govcharge

type Tuple []int

type Governor struct{ budget int }

func (g *Governor) charge(n int) bool { g.budget -= n; return g.budget >= 0 }

type Context struct{ gov *Governor }

func (c *Context) chargeTuple(op string, t Tuple) bool { return c.gov.charge(len(t)) }

// Bulk (block-granular) entry points mirroring the executor's.
func (g *Governor) ChargeTuples(op string, n int64) bool { g.budget -= int(n); return g.budget >= 0 }

func (g *Governor) ChargeBytesN(op string, n, bytes int64) bool {
	g.budget -= int(n)
	return g.budget >= 0
}

// governedAppend charges before retaining: no finding.
func governedAppend(c *Context, out []Tuple, t Tuple) []Tuple {
	if !c.chargeTuple("append", t) {
		return out
	}
	return append(out, t)
}

// ungovernedAppend grows a tuple buffer with no charge in sight.
func ungovernedAppend(out []Tuple, t Tuple) []Tuple {
	return append(out, t) // want `append to a tuple buffer in ungovernedAppend is not governed`
}

// ungovernedInsert retains keys in a membership set with no charge.
func ungovernedInsert(set map[string]struct{}, k string) {
	set[k] = struct{}{} // want `insert into a build/dedup table in ungovernedInsert is not governed`
}

// governedInsert charges in the same function: no finding.
func governedInsert(c *Context, set map[string]Tuple, k string, t Tuple) {
	if c.chargeTuple("insert", t) {
		set[k] = t
	}
}

// plainStrings buffers non-tuple data: exempt by design.
func plainStrings(out []string, s string) []string {
	return append(out, s)
}

// governedBlockAppend bulk-charges a whole block before retaining it: the
// executor's amortized pattern, recognized as governed.
func governedBlockAppend(g *Governor, out []Tuple, block []Tuple) []Tuple {
	if !g.ChargeTuples("block-append", int64(len(block))) {
		return out
	}
	return append(out, block...)
}

// governedBlockBytes uses the byte-accounting bulk entry point: no finding.
func governedBlockBytes(g *Governor, out []Tuple, block []Tuple) []Tuple {
	if !g.ChargeBytesN("block-append", int64(len(block)), 64*int64(len(block))) {
		return out
	}
	return append(out, block...)
}

// drain mirrors the executor's blocking-input loop: every block is charged
// before the sink sees it.
func (c *Context) drain(op string, blocks [][]Tuple, sink func([]Tuple)) {
	for _, b := range blocks {
		for _, t := range b {
			if !c.chargeTuple(op, t) {
				return
			}
		}
		sink(b)
	}
}

// governedDrainSink buffers inside a drain sink: the drain call is the
// charge, so no finding.
func governedDrainSink(c *Context, blocks [][]Tuple) []Tuple {
	var buf []Tuple
	c.drain("build", blocks, func(ts []Tuple) {
		buf = append(buf, ts...)
	})
	return buf
}

// ungovernedBlockAppend grows a spool by whole blocks with no charge: the
// batch-executor bug class this analyzer must keep catching.
func ungovernedBlockAppend(out []Tuple, block []Tuple) []Tuple {
	return append(out, block...) // want `append to a tuple buffer in ungovernedBlockAppend is not governed`
}

// callerCharged is the documented caller-pays pattern: suppressed.
func callerCharged(out []Tuple, t Tuple) []Tuple {
	//lint:ignore govcharge the caller charges the governor per retained tuple before calling this helper
	return append(out, t)
}
