package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/integrity"
	"repro/internal/relation"
)

// constraints are integrity_churn's six closed ∀/∃ constraints; all hold on
// the generated database. The two over attends have the shape the manager
// specializes to an inserted tuple, so a checked insert costs two small
// closed queries, not a full recheck; the other four do not mention attends.
var constraints = []struct{ name, source string }{
	{"attends_student", `forall x, y: attends(x, y) => student(x)`},
	{"attends_lecture", `forall x, y: attends(x, y) => exists d: lecture(y, d)`},
	{"student_enrolled", `forall x: student(x) => exists d: enrolled(x, d)`},
	{"phd_is_student", `forall x: makes(x, "PhD") => student(x)`},
	{"enrolled_member", `forall x, d: enrolled(x, d) => member(x, d)`},
	{"french_db_prof", `exists x: prof(x) and speaks(x, "french") and exists t: skill(x, t)`},
}

// The four reads of a cycle: two constraint checks and two open report
// queries, of which the second does not mention attends — it is flushed by
// a write to attends all the same, which is what a finer invalidation would
// change. Both reports have small answers, so their warm costs are close and
// p50 sits on a plateau of the two, not on the step to a large replay.
var (
	churnChecks  = []string{"attends_student", "attends_lecture"}
	churnReports = []string{
		`{ x | student(x) and forall y: cs_lecture(y) => attends(x, y) }`,
		`{ x | prof(x) and (member(x, "cs") or skill(x, "math")) and speaks(x, "french") }`,
	}
)

// rederiveEvery: every so-many-th cold read is evaluated again by a
// cache-off engine. 49 is coprime with the four read slots, so each slot is
// re-derived in turn.
const rederiveEvery = 49

type churnKind uint8

const (
	churnAccept churnKind = iota // InsertChecked of a satisfying tuple
	churnReject                  // InsertChecked of a violating tuple, then Delete of the last accepted one
	churnCheck                   // Manager.Check
	churnReport                  // open report query
)

// churnOp is one position of the 26-op double cycle (an accepting cycle and
// a rejecting one): a write, then the four reads three times — the first
// round cold, because the write flushed the memo, the other two warm.
type churnOp struct {
	op
	kind churnKind
	slot int  // which of the four reads
	cold bool // first round after the write
}

func prepareChurn(cfg config) (*pool, error) {
	// The oracle covers the base state: every constraint must hold, and the
	// reads must agree with the nested-loop interpreter. Answers during the
	// run move with the writes and are checked against each other.
	p := &pool{}
	for _, c := range constraints {
		p.queries = append(p.queries, &query{class: c.name, text: c.source})
	}
	if _, err := oracleInProcess(cfg, p.queries); err != nil {
		return nil, err
	}
	for _, q := range p.queries {
		if !q.want.truth {
			return nil, fmt.Errorf("constraint %s does not hold on the generated database", q.class)
		}
	}
	reports := []*query{
		{text: churnReports[0], rng: rngStudent},
		{text: churnReports[1], rng: rngProf},
	}
	var err error
	p.vacuous, err = oracleInProcess(cfg, reports)
	return p, err
}

// churnCaller is integrity_churn's single caller.
type churnCaller struct {
	db      *core.DB
	mgr     *integrity.Manager
	eng     *core.Engine // reporting engine, plan cache on
	memo    *exec.Memo   // the traced pipeline's plan cache
	ref     *core.Engine // cache off, for re-deriving cold reads
	attends *relation.Relation

	cycle []churnOp
	pos   int // position of the op in flight
	i     int

	absent  []relation.Tuple // (student, lecture) pairs not in attends, shuffled
	nextTup int
	tuple   relation.Tuple // the tuple of the write in flight
	pending relation.Tuple // accepted, to be deleted by the next rejecting write
	deleted bool

	lastCold  [4]answer
	coldReads int
	t         tally
}

func (c *churnCaller) next() *op {
	c.pos = c.i % len(c.cycle)
	c.i++
	return &c.cycle[c.pos].op
}

func (c *churnCaller) do(o *op, tr *tracer) outcome {
	co := &c.cycle[c.pos]
	switch co.kind {
	case churnAccept:
		c.tuple = c.absent[c.nextTup%len(c.absent)]
		c.nextTup++
		root := tr.begin(spWrite, -1)
		s := tr.begin(spInsertChecked, root)
		err := c.mgr.InsertChecked("attends", c.tuple)
		tr.end(s)
		tr.end(root)
		return outcome{err: err}
	case churnReject:
		c.tuple = relation.NewTuple(relation.Str("ghost"), c.pending[1])
		root := tr.begin(spWrite, -1)
		s := tr.begin(spInsertChecked, root)
		err := c.mgr.InsertChecked("attends", c.tuple)
		tr.end(s)
		s = tr.begin(spDelete, root)
		c.deleted = c.attends.Delete(c.pending)
		tr.end(s)
		tr.end(root)
		return outcome{err: err}
	case churnCheck:
		root := tr.begin(spCheck, -1)
		rep, err := c.mgr.Check(o.text)
		tr.end(root)
		return outcome{rep: rep, err: err}
	default:
		return runQuery(tr, c.db, c.eng, c.memo, o.text)
	}
}

func (c *churnCaller) check(o *op, out outcome) error {
	co := &c.cycle[c.pos]
	switch co.kind {
	case churnAccept:
		c.t.writes++
		if out.err != nil {
			return fmt.Errorf("insert of the satisfying tuple %v: %w", c.tuple, out.err)
		}
		if !c.attends.Contains(c.tuple) {
			return fmt.Errorf("accepted tuple %v is not in attends", c.tuple)
		}
		c.pending = c.tuple
		return nil
	case churnReject:
		c.t.writes++
		c.t.rejected++
		if out.err == nil || c.attends.Contains(c.tuple) {
			return fmt.Errorf("violating tuple %v was not rejected and rolled back", c.tuple)
		}
		if !c.deleted {
			return fmt.Errorf("tuple %v accepted one cycle earlier was not there to delete", c.pending)
		}
		return nil
	}
	if out.err != nil {
		return out.err
	}
	var got answer
	if co.kind == churnCheck {
		got = answer{truth: out.rep.Satisfied}
		if !got.truth {
			return fmt.Errorf("constraint %s reported violated", o.text)
		}
	} else {
		got = answerOf(out.res)
		c.t.noteQuery(out.res.Stats)
	}
	if !co.cold {
		if got != c.lastCold[co.slot] {
			return fmt.Errorf("warm read %v differs from the preceding cold read %v: %s", got, c.lastCold[co.slot], o.text)
		}
		return nil
	}
	c.lastCold[co.slot] = got
	c.coldReads++
	if c.coldReads%rederiveEvery != 0 {
		return nil
	}
	text := o.text
	if co.kind == churnCheck {
		text = constraintSource(o.text)
	}
	want, err := evalAnswer(c.ref, text)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("cold read %v differs from the cache-off engine's %v: %s", got, want, text)
	}
	return nil
}

func (c *churnCaller) tally() *tally { return &c.t }

func constraintSource(name string) string {
	for _, c := range constraints {
		if c.name == name {
			return c.source
		}
	}
	return ""
}

func setupChurn(cfg config, _ *pool) (*env, error) {
	t0 := time.Now()
	db, err := buildDB(cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	load := time.Since(t0).Seconds()
	c := &churnCaller{
		db:   db,
		mgr:  integrity.NewManager(db),
		eng:  core.NewEngine(db, core.WithPlanCache(0)),
		memo: exec.NewMemo(0),
		ref:  core.NewEngine(db, core.WithoutPlanCache()),
	}
	for _, ct := range constraints {
		if _, err := c.mgr.Define(ct.name, ct.source); err != nil {
			return nil, err
		}
	}
	if c.attends, err = db.Catalog().Relation("attends"); err != nil {
		return nil, err
	}
	students, err1 := db.Catalog().Relation("student")
	lectureRel, err2 := db.Catalog().Relation("lecture")
	if err := errors.Join(err1, err2); err != nil {
		return nil, err
	}
	for _, s := range students.Tuples() {
		for _, l := range lectureRel.Tuples() {
			if t := relation.NewTuple(s[0], l[0]); !c.attends.Contains(t) {
				//lint:ignore govcharge harness input built once at set-up, outside any query execution — there is no governor to charge
				c.absent = append(c.absent, t)
			}
		}
	}
	if len(c.absent) == 0 {
		return nil, errors.New("every student attends every lecture: nothing to insert")
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(c.absent), func(i, j int) {
		c.absent[i], c.absent[j] = c.absent[j], c.absent[i]
	})

	// Classes: the two writes, then each read slot cold and warm.
	classes := []string{"write_accept", "write_reject"}
	pipeline := []bool{false, false}
	reads := make([]churnOp, 0, 8)
	for _, cold := range []bool{true, false} {
		temp := map[bool]string{true: "cold", false: "warm"}[cold]
		for slot := 0; slot < 4; slot++ {
			co := churnOp{kind: churnCheck, slot: slot, cold: cold}
			if slot < 2 {
				co.text = churnChecks[slot]
				classes = append(classes, fmt.Sprintf("check%d_%s", slot, temp))
			} else {
				co.kind = churnReport
				co.text = churnReports[slot-2]
				classes = append(classes, fmt.Sprintf("report%d_%s", slot-2, temp))
			}
			co.class = len(classes) - 1
			pipeline = append(pipeline, co.kind == churnReport)
			reads = append(reads, co)
		}
	}
	for _, kind := range []churnKind{churnAccept, churnReject} {
		c.cycle = append(c.cycle, churnOp{op: op{class: int(kind)}, kind: kind})
		c.cycle = append(c.cycle, reads[:4]...)
		c.cycle = append(c.cycle, reads[4:]...)
		c.cycle = append(c.cycle, reads[4:]...)
	}
	return &env{
		classes:  classes,
		pipeline: pipeline,
		callers:  []caller{c},
		cycleLen: len(c.cycle),
		loadS:    load,
		gauges: func() (core.Snapshot, int64) {
			return c.eng.Snapshot(), db.Catalog().Generation()
		},
		close: func() error { return nil },
	}, nil
}
