package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/planopt"
	"repro/internal/rewrite"
	"repro/internal/translate"
)

// Span names: one per layer boundary the harness can see from outside.
const (
	spQuery = iota // root of one traced pipeline run (what QueryContext spans)
	spParse
	spExpand
	spNormalize
	spTranslate
	spValidate
	spShare
	spExec
	spWrite // root of one integrity_churn write
	spInsertChecked
	spDelete
	spCheck     // root of one Manager.Check
	spRoundtrip // root of one service request, client side
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.query", "parser.parse", "views.expand", "rewrite.normalize",
	"translate.translate", "algebra.validate", "planopt.share", "exec.run",
	"integrity.write", "integrity.insert_checked", "relation.delete",
	"integrity.check", "client.roundtrip",
}

// pipeline lists the layer spans under a core.query root.
var pipeline = []int{spParse, spExpand, spNormalize, spTranslate, spValidate, spShare, spExec}

// span is one timed call: its name, the span that caused it (-1 for a
// root), the op it belongs to, and its start and end in nanoseconds since
// the tracer was made.
type span struct {
	name       uint8
	parent, op int32
	start, end int64
}

// maxSpans bounds one caller's buffer (and with it the trace file, at about
// 90 bytes a span); a traced phase ends early when a buffer fills.
const maxSpans = 1 << 19

// tracer is one caller's span buffer, preallocated (off the garbage-collected
// heap, see offHeap) so that recording a span is two clock reads and a slice
// append. It is not safe for concurrent use; every caller goroutine has its
// own.
type tracer struct {
	t0    time.Time
	op    int32
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: offHeap[span](maxSpans)}
}

// reset empties the buffer and restarts the clock.
func (t *tracer) reset() {
	t.t0, t.op, t.spans = time.Now(), 0, t.spans[:0]
}

// full reports whether another op's spans might not fit.
func (t *tracer) full() bool { return len(t.spans) > maxSpans-16 }

// begin opens a span and returns its index; begin and end do nothing on a
// nil tracer, so untraced callers share the traced code path where the call
// under test is the same.
func (t *tracer) begin(name int, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: uint8(name), parent: parent, op: t.op, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].end = int64(time.Since(t.t0))
	}
}

// layerTimes is the per-name aggregate of a set of span buffers. Only root
// spans have children here, and the root's self time is reported from the
// untraced run (core.self_us_per_op), so totals are all that is kept.
type layerTimes struct {
	count [numSpanNames]int64
	total [numSpanNames]int64 // span durations, ns
}

func aggregate(tracers []*tracer) layerTimes {
	var lt layerTimes
	for _, t := range tracers {
		for _, s := range t.spans {
			lt.count[s.name]++
			lt.total[s.name] += s.end - s.start
		}
	}
	return lt
}

// meanUS is a layer's mean span duration in microseconds.
func (lt *layerTimes) meanUS(name int) float64 {
	if lt.count[name] == 0 {
		return 0
	}
	return float64(lt.total[name]) / float64(lt.count[name]) / 1e3
}

// writeTrace writes the span buffers as JSON lines, one span per line.
func writeTrace(dir, workload string, tracers []*tracer) (err error) {
	f, err := os.Create(filepath.Join(dir, "trace_"+workload+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for caller, t := range tracers {
		for i, s := range t.spans {
			line = append(line[:0], `{"caller":`...)
			line = strconv.AppendInt(line, int64(caller), 10)
			line = append(line, `,"op":`...)
			line = strconv.AppendInt(line, int64(s.op), 10)
			line = append(line, `,"span":`...)
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, int64(s.parent), 10)
			line = append(line, `,"name":"`...)
			line = append(line, spanNames[s.name]...)
			line = append(line, `","start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

// tracedQuery evaluates one text the way core.(*Engine).QueryContext does —
// the same public functions of the same layers in the same order, with the
// engine's default options — recording a span around each call. memo is the
// harness-held plan cache (nil = cache off, which also skips the share pass,
// as the engine does). The result carries the run's exec.Stats.
func tracedQuery(tr *tracer, db *core.DB, memo *exec.Memo, text string) (*core.Result, error) {
	root := tr.begin(spQuery, -1)
	defer tr.end(root)

	s := tr.begin(spParse, root)
	q, err := parser.Parse(text)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}

	s = tr.begin(spExpand, root)
	q, err = db.Views().Expand(q)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("views: %w", err)
	}

	s = tr.begin(spNormalize, root)
	nq, err := rewrite.Normalize(q)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("normalize: %w", err)
	}

	s = tr.begin(spTranslate, root)
	plan, boolPlan, err := translate.NewBryWithOptions(db.Catalog(), translate.Options{}).Translate(nq)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}

	s = tr.begin(spValidate, root)
	if plan != nil {
		err = algebra.Validate(plan)
	} else {
		err = algebra.ValidateBool(boolPlan)
	}
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}

	if memo != nil {
		s = tr.begin(spShare, root)
		if plan != nil {
			plan = planopt.Share(plan)
		} else {
			boolPlan = planopt.ShareBool(boolPlan)
		}
		tr.end(s)
	}

	ctx := exec.NewContext(db.Catalog())
	ctx.Memo = memo
	res := &core.Result{Open: q.IsOpen(), Canonical: nq.String()}
	s = tr.begin(spExec, root)
	if plan != nil {
		res.Rows, err = exec.Run(ctx, plan)
	} else {
		res.Truth, err = exec.EvalBool(ctx, boolPlan)
	}
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	res.Stats = *ctx.Stats
	return res, nil
}
