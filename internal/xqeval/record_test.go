package xqeval

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// The column-record kernel (record.go) against the generic constructor
// evaluation it replaces: the same element, byte for byte, the same error
// text and the same step charge, and no kernel — or a declined record —
// wherever the shape is not one it builds.

// guardedCol is the translator's NULL-guarded column copy of $v/col.
func guardedCol(name, v, col string) string {
	return fmt.Sprintf(`{ if (fn:empty(fn:data($%s/%s))) then () else <%s>{fn:data($%s/%s)}</%s> }`, v, col, name, v, col, name)
}

// plainCol is the translator's unguarded column copy of $v/col.
func plainCol(name, v, col string) string {
	return fmt.Sprintf(`<%s>{fn:data($%s/%s)}</%s>`, name, v, col, name)
}

// recordRow builds a row element from name/text pairs.
func recordRow(cols ...string) *xdm.Element {
	r := xdm.NewElement("ROW")
	for i := 0; i < len(cols); i += 2 {
		r.AddChild(xdm.NewTextElement(cols[i], cols[i+1]))
	}
	return r
}

// recordCase is one constructor and the bindings it is evaluated under.
type recordCase struct {
	name string
	ctor string
	a, b xdm.Sequence
	// kernel is whether the planner gives the constructor a kernel;
	// declined, whether that kernel hands the record back.
	kernel, declined bool
}

func recordCases() []recordCase {
	row := xdm.SequenceOf(recordRow("X", "1", "Y", "a<&b", "E", ""))
	other := xdm.SequenceOf(recordRow("X", "2", "Z", "z"))
	mixed := "<R>" + plainCol("A.X", "a", "X") + guardedCol("A.Y", "a", "Y") + guardedCol("A.Z", "a", "Z") + "</R>"
	join := "<R>" + plainCol("A.X", "a", "X") + guardedCol("A.Y", "a", "Y") + plainCol("B.X", "b", "X") + guardedCol("B.Z", "b", "Z") + guardedCol("B.Y", "b", "Y") + "</R>"
	return []recordCase{
		{name: "plain, guarded present and absent", ctor: mixed, a: row, kernel: true},
		{name: "empty-string column", ctor: "<R>" + plainCol("E1", "a", "E") + guardedCol("E2", "a", "E") + "</R>", a: row, kernel: true},
		{name: "all absent", ctor: "<R>" + guardedCol("Q", "a", "Q") + "</R>", a: row, kernel: true},
		{name: "two source variables", ctor: join, a: row, b: other, kernel: true},
		{name: "repeated output name", ctor: "<R>" + plainCol("X", "a", "X") + plainCol("X", "a", "X") + "</R>", a: row, kernel: true},
		{name: "repeated column", ctor: mixed, a: xdm.SequenceOf(recordRow("X", "1", "X", "2")), kernel: true, declined: true},
		{name: "variable bound to nothing", ctor: mixed, a: xdm.Sequence{}, kernel: true, declined: true},
		{name: "variable bound to two rows", ctor: mixed, a: xdm.Sequence{row[0], other[0]}, kernel: true, declined: true},
		{name: "variable bound to an atomic", ctor: mixed, a: xdm.SequenceOf(xdm.Integer(7)), kernel: true, declined: true},
		{name: "unbound variable", ctor: join, a: row, kernel: true, declined: true},
		{name: "missing unguarded column", ctor: "<R>" + plainCol("Z", "a", "Z") + "</R>", a: row, kernel: true, declined: true},
		{name: "non-column child", ctor: "<R>" + plainCol("A.X", "a", "X") + "<N>{fn:count($a/X)}</N></R>", a: row},
		{name: "guarded non-column value", ctor: "<R>{ if (fn:empty(fn:upper-case($a/Y))) then () else <U>{fn:upper-case($a/Y)}</U> }</R>", a: row},
		{name: "text child", ctor: "<R>" + plainCol("A.X", "a", "X") + "t</R>", a: row},
		{name: "empty constructor", ctor: "<R/>", a: row},
	}
}

// recordPlan parses a bare constructor and plans it.
func recordPlan(t *testing.T, ctor string) (*xquery.ElementCtor, *Plan) {
	t.Helper()
	q, err := xquery.Parse(ctor)
	if err != nil {
		t.Fatalf("%s: %v", ctor, err)
	}
	e, ok := q.Body.(*xquery.ElementCtor)
	if !ok {
		t.Fatalf("%s parsed to %T", ctor, q.Body)
	}
	return e, NewPlan(q)
}

// recordScope is a tuple scope binding $a and $b (when set), whose counters
// start at steps; a maxDepth above zero is one its depth exceeds.
func recordScope(ctx context.Context, c recordCase, p *Plan, steps, maxDepth int64) *scope {
	root := &scope{st: &evalState{engine: New(), prefixes: map[string]string{}, goCtx: ctx, done: ctx.Done(), plan: p,
		counters: &evalCounters{steps: steps}, limits: Limits{MaxDepth: maxDepth}}, depth: maxDepth}
	t := root.bind("a", c.a)
	if c.b != nil {
		t = t.bind("b", c.b)
	}
	return t
}

func TestRecordKernelMatchesGeneric(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range recordCases() {
		e, p := recordPlan(t, c.ctor)
		k, ok := p.records[e]
		if ok != c.kernel {
			t.Fatalf("%s: kernel planned %v, want %v", c.name, ok, c.kernel)
		}
		if ok {
			env := recordScope(context.Background(), c, p, 0, 0)
			if _, handled, err := k.build(env); handled == c.declined || err != nil || handled && env.st.counters.steps == 0 {
				t.Fatalf("%s: kernel handled %v (error %v, %d steps), want %v", c.name, handled, err, env.st.counters.steps, !c.declined)
			}
			if c.declined && env.st.counters.steps != 0 {
				t.Fatalf("%s: declined record charged %d steps", c.name, env.st.counters.steps)
			}
		}
		// Plain, at a depth limit the first step trips, and with the
		// cancellation poll landing on each of the record's steps.
		type run struct {
			ctx      context.Context
			steps    int64
			maxDepth int64
		}
		runs := []run{{context.Background(), 0, 0}, {context.Background(), 0, 1}}
		for s := int64(1); s <= 40; s++ {
			runs = append(runs, run{canceled, 1024 - s, 0})
		}
		for _, r := range runs {
			eval := func(p *Plan) (string, int64) {
				env := recordScope(r.ctx, c, p, r.steps, r.maxDepth)
				el, err := constructElement(e, env)
				if err != nil {
					return "error: " + err.Error(), env.st.counters.steps
				}
				return xdm.Marshal(el), env.st.counters.steps
			}
			got, gotSteps := eval(p)
			want, wantSteps := eval(nil)
			if got != want || gotSteps != wantSteps {
				t.Fatalf("%s (from step %d, depth limit %d): kernel %s (%d steps), generic %s (%d steps)",
					c.name, r.steps, r.maxDepth, got, gotSteps, want, wantSteps)
			}
		}
	}
}

// TestRecordKernelPlans runs kernel records through whole plans — a flat
// RECORD per row, a join's, an outer join's padded and matched records, and
// records read back out of a RECORDSET — at 1, 2 and 8 workers, streamed
// and materialized, against naive; serially, against the same plan without
// kernels step for step.
func TestRecordKernelPlans(t *testing.T) {
	e := kernelEngine()
	defer ForceFanOutForTest(e, 0, 0, 0)
	aCols := "<RECORD>" + plainCol("A.N", "a", "N") + guardedCol("A.K", "a", "K") + guardedCol("A.L", "a", "L")
	bCols := plainCol("B.N", "b", "N") + guardedCol("B.K", "b", "K")
	bodies := []string{
		`for $a in j:R() return ` + aCols + `</RECORD>`,
		`for $a in j:R() for $b in j:S() where $b/N = $a/N return ` + aCols + bCols + `</RECORD>`,
		`for $a in j:R() let $m := j:T()[(N = $a/N)] return if (fn:empty($m)) then ` + aCols + `</RECORD> else for $b in $m return ` + aCols + bCols + `</RECORD>`,
		`let $rs := <RECORDSET>{ for $a in j:R() return ` + aCols + `</RECORD> }</RECORDSET> for $r in $rs/RECORD where $r/A.N > 2 return <OUT>` + guardedCol("N", "r", "A.N") + guardedCol("K", "r", "A.K") + `</OUT>`,
	}
	ctx := context.Background()
	for _, body := range bodies {
		q := kernelQuery(t, body)
		plan := NewPlan(q)
		if len(plan.records) == 0 {
			t.Fatalf("%s: no record kernel planned", body)
		}
		// The generic copy keeps its own builds: plan's kept RECORDSET
		// holds kernel-built records.
		generic := *FreshKept(plan)
		generic.records = nil
		ForceFanOutForTest(e, 1, 0, 0)
		steps := func(p *Plan) (string, int64) {
			counters := &evalCounters{}
			out, err := evalExpr(q.Body, e.rootScope(ctx, q, p, nil, counters))
			return outcomeSeq(out, err), counters.steps
		}
		got, gotSteps := steps(plan)
		if want, wantSteps := steps(&generic); got != want || gotSteps != wantSteps {
			t.Fatalf("%s: kernels %s (%d steps), generic %s (%d steps)", body, got, gotSteps, want, wantSteps)
		}
		naive, err := e.EvalNaive(ctx, q, nil)
		want := outcomeSeq(naive, err)
		wantStream := drainKernelStream(e.EvalStreamNaive(ctx, q, nil, nil))
		if strings.HasPrefix(want, "error") {
			t.Fatalf("%s: naive %s", body, want)
		}
		for _, p := range []*Plan{plan, NewPlanStats(q, e)} {
			// Each worker count evaluates copies with nothing kept, so it
			// builds; then p itself reuses what it kept.
			for _, workers := range []int{1, 2, 8, 0} {
				materialized, streamed := FreshKept(p), FreshKept(p)
				if workers == 0 {
					workers, materialized, streamed = 8, p, p
				}
				ForceFanOutForTest(e, workers, 2, 2)
				out, err := e.EvalStream(ctx, materialized, nil, nil).Drain()
				if got := outcomeSeq(out, err); got != want {
					t.Fatalf("%s, %d workers: planned %s, naive %s", body, workers, got, want)
				}
				if got := drainKernelStream(e.EvalStream(ctx, streamed, nil, nil)); got != wantStream {
					t.Fatalf("%s, %d workers: streamed %s, naive %s", body, workers, got, wantStream)
				}
			}
		}
	}
}
