package calculus

import (
	"fmt"
	"strings"
)

// String renders an atom as R(t₁,…,tₙ).
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// String renders a comparison atom.
func (c Cmp) String() string {
	return c.Left.String() + " " + c.Op.String() + " " + c.Right.String()
}

// String renders ¬F.
func (n Not) String() string { return "¬" + wrap(n.F) }

// String renders F₁ ∧ F₂.
func (a And) String() string { return wrap(a.L) + " ∧ " + wrap(a.R) }

// String renders F₁ ∨ F₂.
func (o Or) String() string { return wrap(o.L) + " ∨ " + wrap(o.R) }

// String renders F₁ ⇒ F₂.
func (i Implies) String() string { return wrap(i.L) + " ⇒ " + wrap(i.R) }

// String renders ∃x₁…xₙ (F); the body is always parenthesized so the
// rendering re-parses without the ':' separator.
func (e Exists) String() string {
	return "∃" + strings.Join(e.Vars, ",") + " (" + e.Body.String() + ")"
}

// String renders ∀x₁…xₙ (F).
func (f Forall) String() string {
	return "∀" + strings.Join(f.Vars, ",") + " (" + f.Body.String() + ")"
}

// wrap parenthesizes composite subformulas so the rendering is unambiguous.
func wrap(f Formula) string {
	switch f.(type) {
	case Atom, Cmp, Not:
		return f.String()
	default:
		return "(" + f.String() + ")"
	}
}

var _ = fmt.Stringer(Atom{})
