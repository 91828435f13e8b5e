package rewrite

import (
	"fmt"
	"sort"

	"repro/internal/calculus"
	"repro/internal/parser"
	"repro/internal/ranges"
)

// Step records one rule application for explanation and testing.
type Step struct {
	Rule Rule
	// At renders the subformula the rule fired on.
	At string
	// Result renders the whole formula after the application.
	Result string
}

// Engine normalizes queries into canonical form by applying Rules 1-14 to a
// fixpoint. The zero MaxSteps means DefaultMaxSteps.
type Engine struct {
	// MaxSteps bounds rule applications; exceeding it returns an error.
	// The rewriting system is noetherian (Proposition 1), so the bound
	// exists only to convert a hypothetical implementation bug into a
	// clean error instead of a hang.
	MaxSteps int
	// Choose picks the next candidate among all applicable ones; nil means
	// the first (leftmost-innermost collection order). The confluence tests
	// inject random choices here.
	Choose func(cands []Candidate) int
	// Trace, when set, receives every applied step.
	Trace *[]Step
}

// DefaultMaxSteps bounds rule applications per normalization.
const DefaultMaxSteps = 100000

// Normalize rewrites the query into canonical form. It validates the input
// (restricted quantifications, Definitions 2/3), standardizes bound
// variables apart, applies the rules to a fixpoint, orders the result
// canonically, and re-validates. The returned query is logically equivalent
// to the input.
func (e *Engine) Normalize(q parser.Query) (parser.Query, error) {
	if err := ranges.Validate(q.Body, q.OpenVars); err != nil {
		return parser.Query{}, err
	}
	gen := calculus.NewNameGen(calculus.AllVars(q.Body))
	f := calculus.RenameBound(q.Body, gen)
	// Keep the open variables stable: RenameBound only renames bound ones.

	maxSteps := e.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	steps := 0
	for {
		cands := collect(f, q.OpenVars, gen)
		if len(cands) == 0 {
			break
		}
		// Phased strategy: logic normalization (Rules 1-5) runs before any
		// quantifier restructuring, useless-variable removal before scope
		// movement, movement before splitting, splitting before
		// distribution. The rule system has overlapping redexes across
		// these classes (e.g. De Morgan exposing a disjunction that Rules
		// 10/11 would distribute at a different granularity); fixing the
		// class order makes the normal form unique while leaving the
		// within-class application order free — the confluence tests
		// randomize over exactly that freedom.
		cands = highestPriorityClass(cands)
		i := 0
		if e.Choose != nil {
			i = e.Choose(cands)
		}
		c := cands[i]
		f = c.Apply()
		steps++
		if e.Trace != nil {
			*e.Trace = append(*e.Trace, Step{Rule: c.Rule, At: c.At, Result: f.String()})
		}
		if steps > maxSteps {
			return parser.Query{}, fmt.Errorf("rewrite: exceeded %d rule applications; the rewriting system should be noetherian (Proposition 1) — this is a bug", maxSteps)
		}
	}

	f = Reorder(f)
	out := parser.Query{OpenVars: q.OpenVars, Body: f}
	if err := CheckCanonical(f); err != nil {
		return parser.Query{}, fmt.Errorf("rewrite: normalization left a non-canonical residue: %w", err)
	}
	return out, nil
}

// ruleClass orders rules into strategy phases; lower runs first.
func ruleClass(r Rule) int {
	switch r {
	case Rule1, Rule2, Rule3, RuleNegCmp, Rule4, Rule5, RuleForallOr:
		return 0 // negation and universal-quantifier normalization
	case Rule6, Rule7:
		return 1 // useless quantified variables
	case Rule8, Rule9:
		return 2 // scope movement (miniscoping)
	case Rule14:
		return 3 // quantifier splitting over disjunctions
	default:
		return 4 // Rules 10-13: distribution inside ranges
	}
}

// highestPriorityClass filters candidates to the lowest class present.
func highestPriorityClass(cands []Candidate) []Candidate {
	best := ruleClass(cands[0].Rule)
	for _, c := range cands[1:] {
		if k := ruleClass(c.Rule); k < best {
			best = k
		}
	}
	out := cands[:0:0]
	for _, c := range cands {
		if ruleClass(c.Rule) == best {
			out = append(out, c)
		}
	}
	return out
}

// Normalize is the package-level convenience using a default engine.
func Normalize(q parser.Query) (parser.Query, error) {
	e := &Engine{}
	return e.Normalize(q)
}

// Reorder puts a formula into a canonical syntactic order: ∧/∨ chains are
// flattened, subformulas ordered by a stable key, and rebuilt
// left-associatively. Combined with the confluence of the rule system this
// makes canonical forms unique up to the renaming of bound variables.
func Reorder(f calculus.Formula) calculus.Formula {
	switch n := f.(type) {
	case calculus.Atom, calculus.Cmp:
		return f
	case calculus.Not:
		return calculus.Not{F: Reorder(n.F)}
	case calculus.And:
		parts := calculus.Conjuncts(n)
		for i := range parts {
			parts[i] = Reorder(parts[i])
		}
		sortStable(parts)
		return calculus.AndAll(parts...)
	case calculus.Or:
		parts := calculus.Disjuncts(n)
		for i := range parts {
			parts[i] = Reorder(parts[i])
		}
		sortStable(parts)
		return calculus.OrAll(parts...)
	case calculus.Implies:
		return calculus.Implies{L: Reorder(n.L), R: Reorder(n.R)}
	case calculus.Exists:
		vars := append([]string(nil), n.Vars...)
		sort.Strings(vars)
		return calculus.Exists{Vars: vars, Body: Reorder(n.Body)}
	case calculus.Forall:
		vars := append([]string(nil), n.Vars...)
		sort.Strings(vars)
		return calculus.Forall{Vars: vars, Body: Reorder(n.Body)}
	default:
		panic(fmt.Sprintf("rewrite: unknown formula %T", f))
	}
}

// sortStable orders subformulas by a structural key that ignores bound
// variable names (so confluence comparisons are insensitive to the fresh
// names different rule orders pick) and uses the exact rendering only to
// break ties deterministically.
func sortStable(parts []calculus.Formula) {
	type keyed struct {
		key string
		f   calculus.Formula
	}
	ks := make([]keyed, len(parts))
	for i, p := range parts {
		ks[i] = keyed{key: structuralKey(p) + "\x00" + p.String(), f: p}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	for i := range ks {
		parts[i] = ks[i].f
	}
}

// StructuralKey renders a formula as a canonical string: bound variables
// are replaced by binder indexes (so fresh-name choices do not matter),
// ∧/∨ chains are sorted, and the variable order inside a quantifier block —
// which the paper declares irrelevant (∃x₁x₂ ≡ ∃x₂x₁) — is normalized by
// minimizing over block permutations. Two formulas with equal keys are
// equal up to bound renaming, block ordering and ∧/∨ reordering; the
// confluence tests compare normal forms through it.
func StructuralKey(f calculus.Formula) string {
	return renderKey(f, map[string]string{})
}

func structuralKey(f calculus.Formula) string { return StructuralKey(f) }

func renderKey(f calculus.Formula, bound map[string]string) string {
	term := func(t calculus.Term) string {
		if t.IsVar() {
			if b, ok := bound[t.Var]; ok {
				return b
			}
			return "f:" + t.Var
		}
		return "c:" + t.Const.String()
	}
	switch n := f.(type) {
	case calculus.Atom:
		s := "A" + n.Pred + "("
		for _, a := range n.Args {
			s += term(a) + ","
		}
		return s + ")"
	case calculus.Cmp:
		return "C" + term(n.Left) + n.Op.String() + term(n.Right)
	case calculus.Not:
		return "N(" + renderKey(n.F, bound) + ")"
	case calculus.And:
		parts := calculus.Conjuncts(n)
		ks := make([]string, len(parts))
		for i, p := range parts {
			ks[i] = renderKey(p, bound)
		}
		sort.Strings(ks)
		s := "&("
		for _, k := range ks {
			s += k + ";"
		}
		return s + ")"
	case calculus.Or:
		parts := calculus.Disjuncts(n)
		ks := make([]string, len(parts))
		for i, p := range parts {
			ks[i] = renderKey(p, bound)
		}
		sort.Strings(ks)
		s := "|("
		for _, k := range ks {
			s += k + ";"
		}
		return s + ")"
	case calculus.Implies:
		return "I(" + renderKey(n.L, bound) + ">" + renderKey(n.R, bound) + ")"
	case calculus.Exists, calculus.Forall:
		var vars []string
		var body calculus.Formula
		tag := "E"
		if ex, ok := n.(calculus.Exists); ok {
			vars, body = ex.Vars, ex.Body
		} else {
			fa := n.(calculus.Forall)
			vars, body = fa.Vars, fa.Body
			tag = "U"
		}
		// The order of variables inside one block is irrelevant
		// (∃x₁x₂ ≡ ∃x₂x₁): canonicalize by minimizing over permutations.
		best := ""
		permute(vars, func(perm []string) {
			nb := make(map[string]string, len(bound)+len(perm))
			for k, v := range bound {
				nb[k] = v
			}
			for i, v := range perm {
				nb[v] = fmt.Sprintf("b%d.%d", len(bound), i)
			}
			k := renderKey(body, nb)
			if best == "" || k < best {
				best = k
			}
		})
		return tag + fmt.Sprintf("%d", len(vars)) + "(" + best + ")"
	default:
		panic(fmt.Sprintf("rewrite: unknown formula %T", f))
	}
}

// permute calls visit with every permutation of vars (Heap's algorithm);
// quantifier blocks are small, so the factorial cost is negligible.
func permute(vars []string, visit func([]string)) {
	v := append([]string(nil), vars...)
	var rec func(k int)
	rec = func(k int) {
		if k <= 1 {
			visit(v)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				v[i], v[k-1] = v[k-1], v[i]
			} else {
				v[0], v[k-1] = v[k-1], v[0]
			}
		}
	}
	rec(len(v))
}

// CheckCanonical verifies the structural guarantees of the canonical form
// that Phase 2 assumes: no universal quantifiers, no implications, no
// double negations, no negated connectives, no useless quantified
// variables, and miniscope form.
func CheckCanonical(f calculus.Formula) error {
	var err error
	calculus.Walk(f, func(g calculus.Formula) {
		if err != nil {
			return
		}
		switch n := g.(type) {
		case calculus.Forall:
			err = fmt.Errorf("universal quantifier remains: %s", g)
		case calculus.Implies:
			err = fmt.Errorf("implication remains: %s", g)
		case calculus.Not:
			switch n.F.(type) {
			case calculus.Not:
				err = fmt.Errorf("double negation remains: %s", g)
			case calculus.And, calculus.Or:
				err = fmt.Errorf("negated connective remains: %s", g)
			}
		case calculus.Exists:
			free := calculus.FreeVars(n.Body)
			for _, v := range n.Vars {
				if !free.Has(v) {
					err = fmt.Errorf("useless quantified variable %q remains: %s", v, g)
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	if !IsMiniscope(f) {
		return fmt.Errorf("formula is not in miniscope form: %s", f)
	}
	return nil
}

// IsMiniscope implements Definition 4: a formula is in miniscope form iff
// none of its quantified subformulas contains an atom in which only
// variables quantified outside that subformula occur.
func IsMiniscope(f calculus.Formula) bool {
	return miniscopeCheck(f, make(calculus.VarSet))
}

// miniscopeCheck walks the formula carrying the set of variables quantified
// outside the current position.
func miniscopeCheck(f calculus.Formula, outside calculus.VarSet) bool {
	switch n := f.(type) {
	case calculus.Atom, calculus.Cmp:
		return true
	case calculus.Not:
		return miniscopeCheck(n.F, outside)
	case calculus.And:
		return miniscopeCheck(n.L, outside) && miniscopeCheck(n.R, outside)
	case calculus.Or:
		return miniscopeCheck(n.L, outside) && miniscopeCheck(n.R, outside)
	case calculus.Implies:
		return miniscopeCheck(n.L, outside) && miniscopeCheck(n.R, outside)
	case calculus.Exists:
		return quantMiniscope(n.Vars, n.Body, outside)
	case calculus.Forall:
		return quantMiniscope(n.Vars, n.Body, outside)
	default:
		panic(fmt.Sprintf("rewrite: unknown formula %T", f))
	}
}

func quantMiniscope(vars []string, body calculus.Formula, outside calculus.VarSet) bool {
	// The quantified subformula must not contain an atom over only
	// outside-quantified variables.
	bad := false
	calculus.Walk(body, func(g calculus.Formula) {
		if bad {
			return
		}
		var vs calculus.VarSet
		switch a := g.(type) {
		case calculus.Atom:
			vs = calculus.FreeVars(a)
		case calculus.Cmp:
			vs = calculus.FreeVars(a)
		default:
			return
		}
		if len(vs) == 0 {
			return
		}
		onlyOutside := true
		for v := range vs {
			if !outside.Has(v) {
				onlyOutside = false
				break
			}
		}
		if onlyOutside {
			bad = true
		}
	})
	if bad {
		return false
	}
	inner := make(calculus.VarSet, len(outside)+len(vars))
	inner.AddAll(outside)
	for _, v := range vars {
		inner.Add(v)
	}
	return miniscopeCheck(body, inner)
}
