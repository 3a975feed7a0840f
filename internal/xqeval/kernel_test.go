package xqeval

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// The column kernels (kernel.go) against the generic evaluation they
// replace: every filter kernel and every column-keyed hash table must give
// the same boolean, the same error text and the same step charge, on
// column texts at the edges of the untyped-to-typed casts.

// kernelTexts are the column texts under test.
var kernelTexts = []string{" 5 ", "5.0", "-0", "1e3", "NaN", "INF", "abc", ""}

// kernelRows is one row per K shape — each text, an absent K, two K
// children (once with equal numeric values) — with an L column cycling
// through the same shapes and an N column numbering the row.
func kernelRows(name string) []*xdm.Element {
	var shapes [][]string
	for _, text := range kernelTexts {
		shapes = append(shapes, []string{text})
	}
	shapes = append(shapes, nil, []string{"5", "abc"}, []string{"5", "5.0"})
	rows := make([]*xdm.Element, len(shapes))
	for i, ks := range shapes {
		r := xdm.NewElement(name)
		r.AddChild(xdm.NewTextElement("N", strconv.Itoa(i)))
		for _, k := range ks {
			r.AddChild(xdm.NewTextElement("K", k))
		}
		for _, l := range shapes[(i*3+1)%len(shapes)] {
			r.AddChild(xdm.NewTextElement("L", l))
		}
		rows[i] = r
	}
	return rows
}

// kernelOperands are invariant operands of every atomic type, plus a
// two-item and an empty one.
func kernelOperands() []xdm.Sequence {
	day := time.Date(2001, 2, 3, 0, 0, 0, 0, time.UTC)
	return []xdm.Sequence{
		{xdm.Untyped("5")}, {xdm.Untyped("abc")}, {xdm.String("5")}, {xdm.String("abc")}, {xdm.Boolean(true)},
		{xdm.Integer(5)}, {xdm.Integer(0)}, {xdm.Decimal(5)}, {xdm.Decimal(math.Copysign(0, -1))},
		{xdm.Double(1000)}, {xdm.Double(math.NaN())}, {xdm.Double(math.Inf(1))},
		{xdm.Date{T: day}}, {xdm.Time{T: time.Date(0, 1, 1, 4, 5, 6, 0, time.UTC)}}, {xdm.DateTime{T: day}},
		{xdm.Integer(5), xdm.String("abc")}, {},
	}
}

// kernelEngine serves R and S, and T: S without its NaN row, so that T's
// tables have no residual list and single-key probes read one bucket.
func kernelEngine() *Engine {
	e := New()
	e.RegisterRows("urn:j", "R", kernelRows("R"))
	e.RegisterRows("urn:j", "S", kernelRows("S"))
	var finite []*xdm.Element
	for _, r := range kernelRows("T") {
		if k := r.FirstChildElement("K"); k == nil || k.StringValue() != "NaN" {
			finite = append(finite, r)
		}
	}
	e.RegisterRows("urn:j", "T", finite)
	return e
}

func kernelQuery(t *testing.T, body string) *xquery.Query {
	t.Helper()
	q, err := xquery.Parse(`import schema namespace j = "urn:j" at "j.xsd";` + "\n" + body)
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	return q
}

// outcome renders a boolean or error result.
func outcome(ok bool, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return strconv.FormatBool(ok)
}

// kernelFilters are the filter shapes: a column against a hoisted operand
// on either side, and two columns.
func kernelFilters() []string {
	var out []string
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		out = append(out,
			fmt.Sprintf(`for $r in j:R() where $r/K %s fn:data($p1) return fn:data($r/N)`, op),
			fmt.Sprintf(`for $r in j:R() where fn:data($p1) %s $r/K return fn:data($r/N)`, op),
			fmt.Sprintf(`for $r in j:R() where $r/K %s $r/L return fn:data($r/N)`, op))
	}
	return out
}

// kernelJoins are the hash joins: columns under `=` and `eq`, atoms probing
// a column table (with and without a residual list), a column probing a
// table of typed atoms.
var kernelJoins = []string{
	`for $a in j:R() for $b in j:S() where $b/K = $a/K return (fn:data($a/N), fn:data($b/N))`,
	`for $a in j:R() for $b in j:S() where $b/K eq $a/K return (fn:data($a/N), fn:data($b/N))`,
	`for $a in j:R() for $b in j:T() where $a/K = $b/K return (fn:data($a/N), fn:data($b/N))`,
	`for $x in fn:data($p1) for $b in j:S() where $b/K = $x return fn:data($b/N)`,
	`for $x in fn:data($p1) for $b in j:S() where $x eq $b/K return fn:data($b/N)`,
	`for $x in fn:data($p1) for $b in j:T() where $b/K = $x return fn:data($b/N)`,
	`for $a in j:R() for $y in fn:data($p1) where $y = $a/K return (fn:data($a/N), $y)`,
	`for $a in j:R() for $y in fn:data($p1) where $a/K eq $y return (fn:data($a/N), $y)`,
}

// kernelLookups are correlated lookups: NOT EXISTS and the filter form.
var kernelLookups = []string{
	`for $a in j:R() where fn:not(fn:exists(for $b in j:S() where $b/K = $a/K return $b)) return fn:data($a/N)`,
	`for $a in j:R() where fn:not(fn:exists(for $b in j:T() where $b/K = $a/K return $b)) return fn:data($a/N)`,
	`for $a in j:R() return fn:count(j:S()[(K = $a/K)])`,
}

func TestColumnKernelsMatchGeneric(t *testing.T) {
	e := kernelEngine()
	rows := kernelRows("R")
	operands := kernelOperands()

	// Filter kernels, tuple by tuple: kernel vs the generic filter vs plain
	// evalEBV, and kernel vs generic step charges.
	for _, body := range kernelFilters() {
		q := kernelQuery(t, body)
		fp := NewPlan(q).flwors[q.Body]
		op := &fp.segments[0].ops[1]
		if op.kind != opKindFilter || op.column == nil {
			t.Fatalf("%s: no column filter planned", body)
		}
		generic := *op
		generic.column = nil
		for _, p := range operands {
			for _, row := range rows {
				run := func(o *planOp, bound xdm.Sequence) (string, int64) {
					ex := &flworExec{fp: fp, states: make([]opState, fp.numStates)}
					root := &scope{st: &evalState{engine: e, prefixes: map[string]string{}, counters: &evalCounters{}, vars: map[string]xdm.Sequence{"p1": p}}}
					tuple := root.bind("r", bound)
					return outcome(ex.evalFilter(o, tuple)), root.st.counters.steps
				}
				one := xdm.SequenceOf(row)
				got, kernelSteps := run(op, one)
				want, genericSteps := run(&generic, one)
				root := &scope{st: &evalState{engine: e, prefixes: map[string]string{}, vars: map[string]xdm.Sequence{"p1": p}}}
				plain := outcome(evalEBV(op.cond, root.bind("r", one)))
				if got != want || got != plain || kernelSteps != genericSteps {
					t.Fatalf("%s, $p1 = %v, row %s: kernel %s (%d steps), generic %s (%d steps), evalEBV %s",
						body, p, xdm.MarshalSequence(one), got, kernelSteps, want, genericSteps, plain)
				}
				// A variable bound to two rows is not a column read: the
				// kernel declines and the generic path answers.
				two := xdm.Sequence{row, rows[0]}
				if got, want := fmt.Sprint(run(op, two)), fmt.Sprint(run(&generic, two)); got != want {
					t.Fatalf("%s, $p1 = %v, two rows: kernel %s, generic %s", body, p, got, want)
				}
			}
		}
	}

	// Hash kernels, probe by probe: the kernel table and probe against the
	// generic ones over the same items, and both against the nested loop —
	// which, comparison by comparison, must find the same matches wherever
	// the hash raises no error, and must raise one wherever the hash does.
	for _, body := range kernelJoins {
		q := kernelQuery(t, body)
		fp := NewPlan(q).flwors[q.Body]
		outer, op := &fp.segments[0].ops[0], &fp.segments[0].ops[1]
		if op.hash == nil || op.hash.keyCol == "" && op.hash.probeCol.col == "" {
			t.Fatalf("%s: no column hash join planned", body)
		}
		genericSpec := *op.hash
		genericSpec.keyCol, genericSpec.probeCol = "", colRead{}
		generic := *op
		generic.hash = &genericSpec
		for _, p := range operands {
			root := &scope{st: &evalState{engine: e, prefixes: map[string]string{"j": "urn:j"}, counters: &evalCounters{}, vars: map[string]xdm.Sequence{"p1": p}}}
			items, err := evalExpr(op.forClause.In, root)
			if err != nil {
				t.Fatal(err)
			}
			probes, err := evalExpr(outer.forClause.In, root)
			if err != nil {
				t.Fatal(err)
			}
			root.st.counters.steps = 0
			kernelTable, err := buildHashTable(op, root, items)
			if err != nil {
				t.Fatal(err)
			}
			if (kernelTable.keys == nil) != (op.hash.keyCol != "") {
				t.Fatalf("%s: a column build must store no keys, any other build must", body)
			}
			kernelSteps := root.st.counters.steps
			root.st.counters.steps = 0
			genericTable, err := buildHashTable(&generic, root, items)
			if err != nil {
				t.Fatal(err)
			}
			if root.st.counters.steps != kernelSteps {
				t.Fatalf("%s: column build charged %d steps, generic %d", body, kernelSteps, root.st.counters.steps)
			}
			matches := func(o *planOp, h *hashTable, tuple *scope) (string, int64) {
				tuple.st.counters.steps = 0
				p, err := o.hash.probeKey(tuple)
				if err != nil {
					return "error: " + err.Error(), tuple.st.counters.steps
				}
				var out []string
				for _, ci := range h.candidates(&p, o.hash.valueCmp) {
					ok, err := h.verify(&p, ci, o.hash.valueCmp)
					if err != nil {
						return "error: " + err.Error(), tuple.st.counters.steps
					}
					if ok {
						out = append(out, strconv.Itoa(int(ci)))
					}
				}
				return strings.Join(out, " "), tuple.st.counters.steps
			}
			for _, probe := range probes {
				tuple := root.bind(outer.forClause.Var, xdm.SequenceOf(probe))
				got, gotSteps := matches(op, kernelTable, tuple)
				if want, wantSteps := matches(&generic, genericTable, tuple); got != want || gotSteps != wantSteps {
					t.Fatalf("%s, probe %v: kernel %q (%d steps), generic %q (%d steps)", body, probe, got, gotSteps, want, wantSteps)
				}
				pv, err := evalExpr(op.hash.probeExpr, tuple)
				if err != nil {
					t.Fatal(err)
				}
				var naive []string
				naiveErr := false
				for i, it := range items {
					kv, err := evalExpr(op.hash.buildExpr, tuple.bind(op.forClause.Var, xdm.SequenceOf(it)))
					if err != nil {
						t.Fatal(err)
					}
					ok, err := verifyJoinPair(xdm.Atomize(pv), xdm.Atomize(kv), op.hash.valueCmp)
					naiveErr = naiveErr || err != nil
					if ok {
						naive = append(naive, strconv.Itoa(i))
					}
				}
				switch {
				case strings.HasPrefix(got, "error: "):
					if !naiveErr {
						t.Fatalf("%s, probe %v: hash raised %s, the nested loop nothing", body, probe, got)
					}
				case got != strings.Join(naive, " "):
					t.Fatalf("%s, probe %v: hash %q, nested loop %q", body, probe, got, strings.Join(naive, " "))
				}
			}
		}
	}

	// Whole plans, structural and stats-built, at 1, 2 and 8 workers,
	// materialized and streamed, against naive: filters exactly (same rows
	// or same error text), hash joins wherever naive raises no error (a
	// probe may skip a comparison that would have failed).
	defer ForceFanOutForTest(e, 0, 0, 0)
	ctx := context.Background()
	type stmt struct {
		body  string
		exact bool
	}
	var stmts []stmt
	for _, body := range kernelFilters() {
		stmts = append(stmts, stmt{body, true})
	}
	for _, body := range append(kernelJoins, kernelLookups...) {
		stmts = append(stmts, stmt{body, false})
	}
	for _, s := range stmts {
		q := kernelQuery(t, s.body)
		plans := []*Plan{NewPlan(q), NewPlanStats(q, e)}
		for _, p := range operands {
			ext := map[string]xdm.Sequence{"p1": p}
			ForceFanOutForTest(e, 1, 0, 0)
			naive, nerr := e.EvalNaive(ctx, q, ext)
			want := outcomeSeq(naive, nerr)
			wantStream := drainKernelStream(e.EvalStreamNaive(ctx, q, ext, nil))
			var first string
			for pi, plan := range plans {
				// Each worker count evaluates copies with nothing kept, so
				// it builds; then plan itself, which keeps its closed
				// builds on the first operand and reuses them on the next.
				for _, workers := range []int{1, 2, 8, 0} {
					materialized, streamedPlan, label := FreshKept(plan), FreshKept(plan), fmt.Sprintf("%s, $p1 = %v, plan %d, %d workers", s.body, p, pi, workers)
					if workers == 0 {
						workers, materialized, streamedPlan = 8, plan, plan
						label = fmt.Sprintf("%s, $p1 = %v, plan %d kept, 8 workers", s.body, p, pi)
					}
					ForceFanOutForTest(e, workers, 2, 2)
					got, err := e.EvalStream(ctx, materialized, ext, nil).Drain()
					gotOut := outcomeSeq(got, err)
					streamed := drainKernelStream(e.EvalStream(ctx, streamedPlan, ext, nil))
					if first == "" {
						first = gotOut
					}
					if gotOut != first {
						t.Fatalf("%s: %s, the serial structural plan %s", label, gotOut, first)
					}
					if s.exact || nerr == nil {
						if gotOut != want {
							t.Fatalf("%s: planned %s, naive %s", label, gotOut, want)
						}
						if streamed != wantStream {
							t.Fatalf("%s: streamed %s, naive stream %s", label, streamed, wantStream)
						}
					}
				}
			}
		}
	}
}

func outcomeSeq(v xdm.Sequence, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return xdm.MarshalSequence(v)
}

// drainKernelStream pulls a cursor dry: its chunks, then how it ended.
func drainKernelStream(cur *Cursor) string {
	defer cur.Close()
	var out []string
	for {
		chunk, err := cur.Next()
		if err == io.EOF {
			return strings.Join(out, " | ")
		}
		if err != nil {
			return strings.Join(append(out, "error: "+err.Error()), " | ")
		}
		out = append(out, xdm.MarshalSequence(chunk))
	}
}
