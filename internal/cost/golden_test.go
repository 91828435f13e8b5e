package cost

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/dataset"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/translate"
)

// goldenPath holds the model's estimates for the benchmark plans, blessed
// when the executor still had a partition-parallel join path. The serial
// estimates must not move when executor features come and go.
const goldenPath = "testdata/explain.golden"

// goldenCase is one benchmark text over one catalog.
type goldenCase struct{ name, text string }

// prop4Cases are the six nesting cases of Proposition 4 (E2).
var prop4Cases = []goldenCase{
	{"case1", `{ x | exists y: R(x, y) and exists z: S(x, y, z) and G(x, y, z) }`},
	{"case2a", `{ x | exists y: R(x, y) and exists z: S(x, y, z) and not G(x, y, z) }`},
	{"case2b", `{ x | exists y: R(x, y) and exists z: T(y, z) and not G(x, y, z) }`},
	{"case3", `{ x | exists y: R(x, y) and not exists z: S(x, y, z) and G(x, y, z) }`},
	{"case4", `{ x | exists y: R(x, y) and not exists z: S(x, y, z) and not G(x, y, z) }`},
	{"case5", `{ x | exists y: R(x, y) and not exists z: T(y, z) and not G(x, y, z) }`},
}

// universityCases are the running-example texts the benchmarks share with
// the cold_quantified workload (open ∀, closed ∀/∃, the §2.2 miniscope Q₁,
// disjunctive filters, a negated atom, a nested ∃).
var universityCases = []goldenCase{
	{"forall_open", `{ x | student(x) and forall y: cs_lecture(y) => attends(x, y) }`},
	{"forall_true", `forall x: student(x) => exists y: attends(x, y)`},
	{"forall_false", `forall x: student(x) => exists y: cs_lecture(y) and attends(x, y)`},
	{"exists_closed", `exists x: student(x) and exists y: cs_lecture(y) and attends(x, y)`},
	{"miniscope_q1", `exists x: student(x) and forall y: cs_lecture(y) => attends(x, y) and not enrolled(x, "cs")`},
	{"disj2", `{ x | prof(x) and (member(x, "cs") or skill(x, "math")) and speaks(x, "french") }`},
	{"disj3", `{ x | student(x) and (enrolled(x, "cs") or makes(x, "PhD") or speaks(x, "german")) }`},
	{"negated_atom", `{ x, z | member(x, z) and not skill(x, "db") }`},
	{"nested_exists", `exists x, y: enrolled(x, y) and y != "cs" and makes(x, "PhD") and exists z: cs_lecture(z) and attends(x, z)`},
}

// e4Catalog is BenchmarkE4Miniscope's database: dense attendance and every
// student enrolled outside cs.
func e4Catalog() *storage.Catalog {
	p := dataset.DefaultUniversity(200)
	p.Lectures = 120
	p.AttendProb = 0.85
	cat := dataset.University(p)
	students, _ := cat.Relation("student")
	enr := relation.New("enrolled", relation.NewSchema("name", "dept"))
	for _, t := range students.Tuples() {
		enr.InsertValues(t[0], relation.Str("math"))
	}
	cat.Add(enr)
	return cat
}

// renderGolden prices every case under the Bry translation at block
// capacity 1 and at the default 1024, printing the root estimates with four
// decimals and the annotated plan at 1024.
func renderGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	sets := []struct {
		title string
		cat   *storage.Catalog
		cases []goldenCase
	}{
		{"E2 Prop. 4, RSTG(24)", dataset.RSTG(dataset.DefaultRSTG(24)), prop4Cases},
		{"E4 miniscope, university(200)", e4Catalog(), []goldenCase{
			{"miniscope_q1", `exists x: student(x) and forall y: cs_lecture(y) => attends(x, y) and not enrolled(x, "cs")`},
		}},
		{"running examples, university(400)", dataset.University(dataset.DefaultUniversity(400)), universityCases},
	}
	for _, set := range sets {
		fmt.Fprintf(&b, "### %s\n", set.title)
		for _, c := range set.cases {
			q, err := rewrite.Normalize(parser.MustParse(c.text))
			if err != nil {
				t.Fatalf("%s: normalize: %v", c.name, err)
			}
			plan, bp, err := translate.NewBry(set.cat).Translate(q)
			if err != nil {
				t.Fatalf("%s: translate: %v", c.name, err)
			}
			fmt.Fprintf(&b, "## %s: %s\n", c.name, c.text)
			for _, bs := range []int{1, 1024} {
				m := New(set.cat)
				m.SetBatchSize(bs)
				var e Estimate
				if plan != nil {
					e, err = m.Estimate(plan)
				} else {
					e, err = m.EstimateBool(bp)
				}
				if err != nil {
					t.Fatalf("%s: estimate: %v", c.name, err)
				}
				fmt.Fprintf(&b, "batch=%d rows=%.4f cost=%.4f\n", bs, e.Rows, e.Cost)
			}
			m := New(set.cat)
			m.SetBatchSize(1024)
			if plan != nil {
				b.WriteString(mustExplain(t, m, plan))
				continue
			}
			b.WriteString(algebra.ExplainBool(bp))
			for _, in := range emptinessInputs(bp) {
				b.WriteString("emptiness input:\n")
				b.WriteString(mustExplain(t, m, in))
			}
		}
	}
	return b.String()
}

func mustExplain(t *testing.T, m *Model, p algebra.Plan) string {
	t.Helper()
	s, err := m.Explain(p)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	return s
}

// emptinessInputs lists the relational inputs of a boolean plan's emptiness
// tests, left to right.
func emptinessInputs(p algebra.BoolPlan) []algebra.Plan {
	switch n := p.(type) {
	case *algebra.NotEmpty:
		return []algebra.Plan{n.Input}
	case *algebra.IsEmpty:
		return []algebra.Plan{n.Input}
	case *algebra.BoolAnd:
		return emptinessSeq(n.Inputs)
	case *algebra.BoolOr:
		return emptinessSeq(n.Inputs)
	case *algebra.BoolNot:
		return emptinessInputs(n.Input)
	default:
		return nil
	}
}

func emptinessSeq(ps []algebra.BoolPlan) []algebra.Plan {
	var out []algebra.Plan
	for _, p := range ps {
		out = append(out, emptinessInputs(p)...)
	}
	return out
}

// TestExplainGolden pins the serial cost estimates of the E2/E4 Prop. 4 and
// running-example plans byte for byte.
func TestExplainGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs\ngot:  %s\nwant: %s", goldenPath, i+1, g, w)
		}
	}
}
