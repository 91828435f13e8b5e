// Package cost implements the cost-estimation model the paper's conclusion
// calls for: "an algebraic translation basically relying on a unique
// operator give rise to simplifying the cost estimation model. Further
// research should be devoted to investigating this issue."
//
// Because the Bry translation expresses quantifiers and disjunctions with
// variants of one operator family — join, semi-join, complement-join,
// (constrained) outer-join — a single probe-based estimation schema covers
// nearly every node: each variant reads its inputs, builds or consults a
// probe structure on the right, and probes once per left tuple; they
// differ only in the output-cardinality factor. The model uses exact base
// cardinalities and per-column distinct counts from the catalog, and
// documented heuristic selectivities where the exact value would require
// full evaluation.
//
// Estimates drive nothing automatically (the paper explicitly leaves the
// choice strategy out of scope); they serve EXPLAIN output and the E11
// experiment, which checks that the model ranks the translation strategies
// in the same order as the measured costs.
package cost

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Estimate is the model's prediction for one plan node.
type Estimate struct {
	// Rows is the estimated output cardinality.
	Rows float64
	// Cost accumulates estimated work: tuples read, probe-structure
	// inserts and probes, in the same spirit as exec.Stats.
	Cost float64
}

// Model estimates plans over one catalog.
type Model struct {
	cat *storage.Catalog
	// distinct caches per-relation, per-column distinct counts.
	distinct map[string][]float64
	// batch mirrors the executor's block capacity (SetBatchSize): per-tuple
	// iteration bookkeeping divides by it, so block execution discounts the
	// probe schema's bookkeeping share ~1000× at the default capacity.
	batch float64
}

// Heuristic selectivities for predicates whose exact value the model does
// not derive; standard textbook constants.
const (
	selEq    = 0.1
	selRange = 1.0 / 3
	selNull  = 0.1
	// joinKeyShare approximates the share of left probes finding a match.
	joinKeyShare = 0.5
	// blockOverhead is the iteration bookkeeping a probe step carries —
	// cancellation poll, fault hook, governor charge — relative to the step
	// itself. The executor pays it once per block (once per tuple at block
	// capacity 1), so the modelled term is blockOverhead/batch per
	// tuple: ~2.4e-4 at the default block capacity, visible in EXPLAIN but
	// far too small to reorder translation strategies (E11).
	blockOverhead = 0.25
)

// New builds a model over the catalog for an executor at block capacity 1
// (bookkeeping paid per tuple) until SetBatchSize says otherwise.
func New(cat *storage.Catalog) *Model {
	return &Model{cat: cat, distinct: make(map[string][]float64), batch: 1}
}

// SetBatchSize tells the model the executor's block capacity, amortizing
// the probe schema's per-tuple bookkeeping term across it. Values below 1
// are treated as capacity 1, the per-tuple charge.
func (m *Model) SetBatchSize(n int) {
	if n < 1 {
		n = 1
	}
	m.batch = float64(n)
}

// Estimate walks the plan bottom-up. Each call prices the plan standalone:
// the first occurrence of a Shared fingerprint pays its full subtree cost
// plus a spooling pass, repeats pay only the replay — tracked in a per-call
// set so Explain's node-by-node walk stays deterministic.
func (m *Model) Estimate(p algebra.Plan) (Estimate, error) {
	return m.est(p, make(map[uint64]bool))
}

func (m *Model) est(p algebra.Plan, seen map[uint64]bool) (Estimate, error) {
	switch n := p.(type) {
	case *algebra.Scan:
		r, err := m.cat.Relation(n.Name)
		if err != nil {
			return Estimate{}, err
		}
		rows := float64(r.Len())
		return Estimate{Rows: rows, Cost: rows}, nil
	case *algebra.Select:
		in, err := m.est(n.Input, seen)
		if err != nil {
			return Estimate{}, err
		}
		sel := m.selectivity(n.Pred, n.Input)
		return Estimate{Rows: in.Rows * sel, Cost: in.Cost + in.Rows}, nil
	case *algebra.Project:
		in, err := m.est(n.Input, seen)
		if err != nil {
			return Estimate{}, err
		}
		rows := in.Rows
		if !n.NoDedup {
			// Deduplication shrinks wide inputs gently; without column
			// provenance the model uses a sublinear cap.
			rows = math.Min(in.Rows, math.Pow(in.Rows, 0.9)+1)
		}
		return Estimate{Rows: rows, Cost: in.Cost + in.Rows}, nil
	case *algebra.Product:
		l, r, err := m.pair(n.Left, n.Right, seen)
		if err != nil {
			return Estimate{}, err
		}
		return Estimate{Rows: l.Rows * r.Rows, Cost: l.Cost + r.Cost + l.Rows*r.Rows}, nil
	case *algebra.Join:
		l, r, err := m.pair(n.Left, n.Right, seen)
		if err != nil {
			return Estimate{}, err
		}
		rows := joinRows(l.Rows, r.Rows, len(n.On))
		if n.Residual != nil {
			rows *= selRange
		}
		return Estimate{Rows: rows, Cost: m.probeCost(l, r, 1)}, nil
	case *algebra.SemiJoin:
		l, r, err := m.pair(n.Left, n.Right, seen)
		if err != nil {
			return Estimate{}, err
		}
		return Estimate{Rows: l.Rows * joinKeyShare, Cost: m.probeCost(l, r, 1)}, nil
	case *algebra.ComplementJoin:
		l, r, err := m.pair(n.Left, n.Right, seen)
		if err != nil {
			return Estimate{}, err
		}
		return Estimate{Rows: l.Rows * (1 - joinKeyShare), Cost: m.probeCost(l, r, 1)}, nil
	case *algebra.OuterJoin:
		l, r, err := m.pair(n.Left, n.Right, seen)
		if err != nil {
			return Estimate{}, err
		}
		rows := math.Max(l.Rows, joinRows(l.Rows, r.Rows, len(n.On)))
		return Estimate{Rows: rows, Cost: m.probeCost(l, r, 1)}, nil
	case *algebra.ConstrainedOuterJoin:
		l, r, err := m.pair(n.Left, n.Right, seen)
		if err != nil {
			return Estimate{}, err
		}
		// Left-preserving: one output row per left row; each constraint
		// halves the share of tuples actually probed.
		probeShare := math.Pow(0.5, float64(len(n.Constraint)))
		return Estimate{Rows: l.Rows, Cost: m.probeCost(l, r, probeShare)}, nil
	case *algebra.Union:
		l, r, err := m.pair(n.Left, n.Right, seen)
		if err != nil {
			return Estimate{}, err
		}
		return Estimate{Rows: (l.Rows + r.Rows) * 0.9, Cost: l.Cost + r.Cost + l.Rows + r.Rows}, nil
	case *algebra.Diff:
		l, r, err := m.pair(n.Left, n.Right, seen)
		if err != nil {
			return Estimate{}, err
		}
		return Estimate{Rows: l.Rows * (1 - joinKeyShare), Cost: m.probeCost(l, r, 1)}, nil
	case *algebra.Intersect:
		l, r, err := m.pair(n.Left, n.Right, seen)
		if err != nil {
			return Estimate{}, err
		}
		return Estimate{Rows: math.Min(l.Rows, r.Rows) * joinKeyShare, Cost: m.probeCost(l, r, 1)}, nil
	case *algebra.Division:
		l, r, err := m.pair(n.Dividend, n.Divisor, seen)
		if err != nil {
			return Estimate{}, err
		}
		groups := math.Max(1, l.Rows/math.Max(1, r.Rows))
		return Estimate{
			Rows: groups * joinKeyShare,
			Cost: l.Cost + r.Cost + l.Rows + r.Rows + groups*r.Rows,
		}, nil
	case *algebra.GroupCount:
		in, err := m.est(n.Input, seen)
		if err != nil {
			return Estimate{}, err
		}
		groups := math.Min(in.Rows, math.Pow(in.Rows, 0.75)+1)
		if len(n.GroupCols) == 0 {
			groups = 1
		}
		return Estimate{Rows: groups, Cost: in.Cost + in.Rows}, nil
	case *algebra.Materialize:
		in, err := m.est(n.Input, seen)
		if err != nil {
			return Estimate{}, err
		}
		return Estimate{Rows: in.Rows, Cost: in.Cost + in.Rows}, nil
	case *algebra.Shared:
		in, err := m.est(n.Input, seen)
		if err != nil {
			return Estimate{}, err
		}
		if seen[n.FP] {
			// Replay: the subtree ran earlier in this plan; only the
			// spooled rows are streamed back out.
			return Estimate{Rows: in.Rows, Cost: in.Rows}, nil
		}
		seen[n.FP] = true
		// First occurrence: full subtree cost plus one spooling pass.
		return Estimate{Rows: in.Rows, Cost: in.Cost + in.Rows}, nil
	default:
		return Estimate{}, fmt.Errorf("cost: unknown plan node %T", p)
	}
}

// EstimateBool estimates a boolean plan: emptiness tests are credited with
// early termination (a fraction of the full input cost), connectives sum
// with short-circuit discounting.
func (m *Model) EstimateBool(p algebra.BoolPlan) (Estimate, error) {
	return m.estBool(p, make(map[uint64]bool))
}

func (m *Model) estBool(p algebra.BoolPlan, seen map[uint64]bool) (Estimate, error) {
	switch n := p.(type) {
	case *algebra.NotEmpty, *algebra.IsEmpty:
		var input algebra.Plan
		if ne, ok := n.(*algebra.NotEmpty); ok {
			input = ne.Input
		} else {
			input = n.(*algebra.IsEmpty).Input
		}
		in, err := m.est(input, seen)
		if err != nil {
			return Estimate{}, err
		}
		// Blocking operators still pay their build cost; the streaming
		// share stops at the first tuple. Credit one third.
		return Estimate{Rows: 1, Cost: in.Cost / 3}, nil
	case *algebra.BoolAnd:
		return m.boolSeq(n.Inputs, seen)
	case *algebra.BoolOr:
		return m.boolSeq(n.Inputs, seen)
	case *algebra.BoolNot:
		return m.estBool(n.Input, seen)
	case *algebra.BoolConst:
		return Estimate{Rows: 1, Cost: 0}, nil
	default:
		return Estimate{}, fmt.Errorf("cost: unknown boolean plan node %T", p)
	}
}

// boolSeq sums children with a geometric short-circuit discount.
func (m *Model) boolSeq(inputs []algebra.BoolPlan, seen map[uint64]bool) (Estimate, error) {
	total := Estimate{Rows: 1}
	weight := 1.0
	for _, c := range inputs {
		e, err := m.estBool(c, seen)
		if err != nil {
			return Estimate{}, err
		}
		total.Cost += e.Cost * weight
		weight *= 0.5
	}
	return total, nil
}

func (m *Model) pair(l, r algebra.Plan, seen map[uint64]bool) (Estimate, Estimate, error) {
	le, err := m.est(l, seen)
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	re, err := m.est(r, seen)
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	return le, re, nil
}

// probeCost is the shared schema of the join family: read both inputs,
// build on the right, probe once per left tuple (probeShare scales the
// probed fraction, for the constrained outer-join's gate).
func (m *Model) probeCost(l, r Estimate, probeShare float64) float64 {
	build, probe := r.Rows, l.Rows*probeShare
	// Iteration bookkeeping: per block, i.e. divided by the block capacity.
	keeping := (build + probe) * blockOverhead / m.batch
	return l.Cost + r.Cost + build + probe + keeping
}

// joinRows estimates equi-join output with the standard V(distinct)
// denominator, approximated by the larger input when no exact count is
// available.
func joinRows(l, r float64, keys int) float64 {
	if keys == 0 {
		return l * r
	}
	return l * r / math.Max(1, math.Max(l, r))
}

// selectivity estimates a predicate's pass rate; when the input is a base
// scan, equality against a constant uses the column's exact distinct count.
func (m *Model) selectivity(p algebra.Pred, input algebra.Plan) float64 {
	switch n := p.(type) {
	case algebra.True:
		return 1
	case algebra.CmpConst:
		if n.Op == relation.OpEq {
			if sc, ok := input.(*algebra.Scan); ok {
				if d := m.distinctOf(sc.Name, n.Col); d > 0 {
					return 1 / d
				}
			}
			return selEq
		}
		if n.Op == relation.OpNe {
			return 1 - selEq
		}
		return selRange
	case algebra.CmpCols:
		if n.Op == relation.OpEq {
			return selEq
		}
		if n.Op == relation.OpNe {
			return 1 - selEq
		}
		return selRange
	case algebra.IsNull:
		return selNull
	case algebra.NotNull:
		return 1 - selNull
	case algebra.And:
		out := 1.0
		for _, q := range n.Preds {
			out *= m.selectivity(q, input)
		}
		return out
	case algebra.Or:
		miss := 1.0
		for _, q := range n.Preds {
			miss *= 1 - m.selectivity(q, input)
		}
		return 1 - miss
	case algebra.Not:
		return 1 - m.selectivity(n.Pred, input)
	default:
		return selRange
	}
}

// distinctOf computes (and caches) the exact distinct count of one column
// of a base relation.
func (m *Model) distinctOf(name string, col int) float64 {
	ds, ok := m.distinct[name]
	if !ok {
		r, err := m.cat.Relation(name)
		if err != nil {
			return 0
		}
		ds = make([]float64, r.Arity())
		for c := 0; c < r.Arity(); c++ {
			seen := make(map[string]struct{})
			for _, t := range r.Tuples() {
				seen[t.Project([]int{c}).Key()] = struct{}{}
			}
			ds[c] = float64(len(seen))
		}
		m.distinct[name] = ds
	}
	if col < 0 || col >= len(ds) {
		return 0
	}
	return ds[col]
}

// Explain renders the plan tree annotated with per-node estimates.
func (m *Model) Explain(p algebra.Plan) (string, error) {
	var b strings.Builder
	if err := m.explain(&b, p, 0); err != nil {
		return "", err
	}
	return b.String(), nil
}

func (m *Model) explain(b *strings.Builder, p algebra.Plan, depth int) error {
	e, err := m.Estimate(p)
	if err != nil {
		return err
	}
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s  (rows≈%.0f cost≈%.0f)\n", p.Describe(), e.Rows, e.Cost)
	for _, c := range p.Children() {
		if err := m.explain(b, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}
