package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/service"
	"repro/internal/storage"
)

// answer is what the harness keeps of a query's result: a truth value, or a
// row count and an order-independent hash (the sum of one FNV-1a hash per
// row, over the values' textual form — the form the wire carries, so one
// oracle serves the in-process and the service workloads).
type answer struct {
	open  bool
	truth bool
	rows  int
	hash  uint64
}

func (a answer) String() string {
	if !a.open {
		return fmt.Sprint(a.truth)
	}
	return fmt.Sprintf("%d rows #%016x", a.rows, a.hash)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashField folds one field and a separator into a row hash.
func hashField(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0x1f) * fnvPrime
}

func answerOf(res *core.Result) answer {
	if !res.Open {
		return answer{truth: res.Truth}
	}
	a := answer{open: true, rows: res.Rows.Len()}
	for _, t := range res.Rows.Tuples() {
		h := uint64(fnvOffset)
		for _, v := range t {
			h = hashField(h, v.String())
		}
		a.hash += h
	}
	return a
}

func answerOfResponse(resp *service.QueryResponse) answer {
	if !resp.Open {
		return answer{truth: resp.Truth != nil && *resp.Truth}
	}
	a := answer{open: true, rows: len(resp.Rows)}
	for _, row := range resp.Rows {
		h := uint64(fnvOffset)
		for _, f := range row {
			h = hashField(h, f)
		}
		a.hash += h
	}
	return a
}

// query is one pool text with the op class it belongs to, its weight in the
// schedule cycle, and — for an open query — the text of its range, which the
// vacuity rule compares the answer with.
type query struct {
	class  string
	text   string
	rng    string
	weight int
	want   answer
}

// replicaScale sizes the small database on which the Fig. 1 nested-loop
// interpreter — code the measured pipeline shares nothing with — checks the
// Bry engine that computes the expected answers.
const replicaScale = 60

// universityParams is the running-example database tuned so that no pool
// query is vacuous: the default generator's 67 cs lectures at attendance 0.3
// leave "attends every cs lecture" empty and "attends some cs lecture" full.
// Fifteen lectures (five per department) at attendance 0.6 put about 8 % of
// the students in the first answer and leave about 1 % out of the second.
func universityParams(scale int, seed int64) dataset.UniversityParams {
	p := dataset.DefaultUniversity(scale)
	p.Lectures = 15
	p.AttendProb = 0.6
	p.Seed = seed
	return p
}

// rstgParams is the Prop. 4 database with densities chosen so each of the
// six cases keeps roughly half to three quarters of R's x-values: two y per
// x on average, and every inner ∃z true for about half the (x, y) pairs.
func rstgParams(scale int, seed int64) dataset.RSTGParams {
	xs := max(16, scale*80/1000)
	ys := xs / 2
	return dataset.RSTGParams{
		Xs: xs, Ys: ys, Zs: 8,
		RProb: 2 / float64(ys), SProb: 0.166, TProb: 0.166, GProb: 0.5,
		Seed: seed,
	}
}

// csStudentView is the one view the in-process database defines, so that
// views.Expand has a registry to walk; warm_replay's negated-atom template
// uses it.
const csStudentView = `{ x | enrolled(x, "cs") }`

// loadDB merges generated catalogs (their relation names are disjoint) into
// one database.
func loadDB(cats ...*storage.Catalog) *core.DB {
	db := core.NewDB()
	for _, cat := range cats {
		for _, name := range cat.Names() {
			r, _ := cat.Relation(name) // Names lists only relations the catalog has
			db.Catalog().Add(r)
		}
	}
	return db
}

// buildDB generates and loads the in-process workloads' database.
func buildDB(scale int, seed int64) (*core.DB, error) {
	db := loadDB(
		dataset.University(universityParams(scale, seed)),
		dataset.RSTG(rstgParams(scale, seed)),
	)
	if err := db.DefineView("cs_student", csStudentView); err != nil {
		return nil, fmt.Errorf("define view: %w", err)
	}
	return db, nil
}

// oracleInProcess is oracle over the in-process database and its replica.
func oracleInProcess(cfg config, pool []*query) (vacuous []string, err error) {
	db, err := buildDB(cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	replica, err := buildDB(replicaScale, cfg.seed)
	if err != nil {
		return nil, err
	}
	return oracle(db, replica, pool)
}

// daemonDB is the database queryd builds for `-dataset university -n scale`;
// the daemon has no seed flag, so serve_warm's data is the same on every run.
func daemonDB(scale int) *core.DB {
	return loadDB(dataset.University(dataset.DefaultUniversity(scale)))
}

// evalAnswer runs one text on an engine and reduces the result.
func evalAnswer(eng *core.Engine, text string) (answer, error) {
	res, err := eng.QueryContext(context.Background(), text)
	if err != nil {
		return answer{}, fmt.Errorf("%s: %w", text, err)
	}
	return answerOf(res), nil
}

// oracle fills in every query's expected answer with a cache-off Bry engine
// over db, cross-checks that engine against the nested-loop interpreter on
// replica, and returns the vacuity findings: an open query whose answer is
// empty or its whole range, or a pool whose closed queries all have one
// truth value.
func oracle(db, replica *core.DB, pool []*query) (vacuous []string, err error) {
	ref := core.NewEngine(db, core.WithoutPlanCache())
	small := core.NewEngine(replica, core.WithoutPlanCache())
	loop := core.NewEngine(replica, core.WithStrategy(core.StrategyLoop))
	truths := map[bool]bool{}
	ranges := map[string]int{} // rows of each range text, evaluated once
	for _, q := range pool {
		if q.want, err = evalAnswer(ref, q.text); err != nil {
			return nil, err
		}
		bry, err := evalAnswer(small, q.text)
		if err != nil {
			return nil, err
		}
		nested, err := evalAnswer(loop, q.text)
		if err != nil {
			return nil, err
		}
		if bry != nested {
			return nil, fmt.Errorf("oracle: on the scale-%d replica the Bry engine answers %v and the nested-loop interpreter %v to %s", replicaScale, bry, nested, q.text)
		}
		if !q.want.open {
			truths[q.want.truth] = true
			continue
		}
		whole, ok := ranges[q.rng]
		if !ok {
			a, err := evalAnswer(ref, q.rng)
			if err != nil {
				return nil, err
			}
			whole = a.rows
			ranges[q.rng] = whole
		}
		if q.want.rows == 0 || q.want.rows >= whole {
			vacuous = append(vacuous, fmt.Sprintf("vacuous: %d of %d rows: %s", q.want.rows, whole, q.text))
		}
	}
	if len(truths) == 1 {
		vacuous = append(vacuous, fmt.Sprintf("vacuous: every closed query of the pool is %v", truths[true]))
	}
	return vacuous, nil
}
