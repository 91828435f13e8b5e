package exec

import (
	"repro/internal/algebra"
	"repro/internal/relation"
)

// prober answers "which right-side tuples join with this left tuple?".
// Two implementations exist: the transient chainedTable built by the
// operator itself (the default), and a persistent catalog index consulted
// lazily (Context.UseIndexes) — the latter charges no build cost, which
// lets emptiness tests (§3.2) terminate after genuinely constant work.
type prober interface {
	// probe returns the matching right tuples for the left tuple's key
	// projection, charging the lookup.
	probe(ctx *Context, t relation.Tuple, keyCols []int) []relation.Tuple
}

// indexProber probes a persistent catalog hash index, optionally
// re-checking a residual selection predicate on each candidate (the case
// of an indexed Select(Scan) right side).
type indexProber struct {
	idx  indexLookup
	pred algebra.Pred // nil when the right side is a bare scan
}

// indexLookup is the part of storage.HashIndex the prober needs; the
// indirection keeps the iterator testable.
type indexLookup interface {
	LookupTuples(key relation.Tuple) []relation.Tuple
}

func (p *indexProber) probe(ctx *Context, t relation.Tuple, keyCols []int) []relation.Tuple {
	ctx.Stats.Comparisons++
	cands := p.idx.LookupTuples(t.Project(keyCols))
	if len(cands) == 0 {
		return nil
	}
	// Candidates are fetched from the base relation: charge the reads.
	ctx.Stats.BaseTuplesRead += int64(len(cands))
	if p.pred == nil {
		return cands
	}
	out := cands[:0:0]
	for _, c := range cands {
		ok, n := p.pred.Eval(c)
		ctx.Stats.Comparisons += int64(n)
		if ok {
			//lint:ignore govcharge transient filter aliasing fetched candidates, bounded by the index bucket and released per probe
			out = append(out, c)
		}
	}
	return out
}

// indexablePlan recognizes right-side plans a catalog index can serve:
// a bare Scan, or Select layers over a Scan (their predicates become the
// prober's residual). It returns the relation name and the residual.
func indexablePlan(p algebra.Plan) (name string, residual algebra.Pred, ok bool) {
	var preds []algebra.Pred
	for {
		switch n := p.(type) {
		case *algebra.Scan:
			switch len(preds) {
			case 0:
				return n.Name, nil, true
			case 1:
				return n.Name, preds[0], true
			default:
				return n.Name, algebra.And{Preds: preds}, true
			}
		case *algebra.Select:
			preds = append(preds, n.Pred)
			p = n.Input
		default:
			return "", nil, false
		}
	}
}

// indexProberFor returns a persistent-index prober for the right-side plan
// when one can serve it (a bare Scan or Select layers over one), and nil
// otherwise. Unknown-relation errors fall through to the hash path, where
// Build resurfaces them with a proper message.
func indexProberFor(ctx *Context, rightPlan algebra.Plan, rightCols []int) *indexProber {
	name, residual, ok := indexablePlan(rightPlan)
	if !ok {
		return nil
	}
	idx, err := ctx.Catalog.EnsureIndex(name, rightCols)
	if err != nil {
		return nil
	}
	return &indexProber{idx: idx, pred: residual}
}
