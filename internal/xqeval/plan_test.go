package xqeval

import (
	"context"
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

func joinEngine(left, right xdm.Sequence) *Engine {
	e := New()
	e.Register("urn:j", "L", func(args []xdm.Sequence) (xdm.Sequence, error) { return left, nil })
	e.Register("urn:j", "R", func(args []xdm.Sequence) (xdm.Sequence, error) { return right, nil })
	return e
}

func joinQuery(op string) *xquery.Query {
	return &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "j", Namespace: "urn:j", Location: "j.xsd"},
		}},
		Body: &xquery.FLWOR{
			Clauses: []xquery.Clause{
				&xquery.For{Var: "a", In: xquery.Call("j:L")},
				&xquery.For{Var: "b", In: xquery.Call("j:R")},
				&xquery.Where{Cond: &xquery.Binary{Op: op, Left: xquery.VarRef("a"), Right: xquery.VarRef("b")}},
			},
			Return: &xquery.Seq{Items: []xquery.Expr{xquery.VarRef("a"), xquery.VarRef("b")}},
		},
	}
}

// diffEval evaluates q planned and naive and requires identical outcomes.
func diffEval(t *testing.T, e *Engine, q *xquery.Query) xdm.Sequence {
	t.Helper()
	planned, perr := e.EvalStream(context.Background(), NewPlan(q), nil, nil).Drain()
	naive, nerr := e.EvalNaive(context.Background(), q, nil)
	if (perr == nil) != (nerr == nil) {
		t.Fatalf("error divergence: planned=%v naive=%v", perr, nerr)
	}
	if perr != nil {
		return nil
	}
	if got, want := xdm.MarshalSequence(planned), xdm.MarshalSequence(naive); got != want {
		t.Fatalf("result divergence:\nplanned: %s\nnaive:   %s", got, want)
	}
	return planned
}

func atoms(vs ...xdm.Atomic) xdm.Sequence {
	s := make(xdm.Sequence, len(vs))
	for i, v := range vs {
		s[i] = v
	}
	return s
}

func TestPlanDetectsHashJoin(t *testing.T) {
	for _, op := range []string{"=", "eq"} {
		p := NewPlan(joinQuery(op))
		if p.HashJoins != 1 {
			t.Fatalf("op %s: HashJoins = %d, want 1", op, p.HashJoins)
		}
		text := strings.Join(p.Describe(), "\n")
		if !strings.Contains(text, "hash join $b in j:R()") {
			t.Fatalf("op %s: Describe missing hash join line:\n%s", op, text)
		}
	}
}

func TestHashJoinMixedTypeClasses(t *testing.T) {
	// Every promotion class the comparison rules let meet without a
	// dynamic error: typed numerics vs untyped numerals (promoted through
	// the probe's type), strings vs untyped (lexical). The planned hash
	// join must agree with the naive nested loop pair for pair — note
	// Untyped("01") matches Integer 1 numerically but not Untyped("1")
	// lexically, which is exactly what the dual s:/n: key forms encode.
	left := atoms(xdm.Integer(1), xdm.Double(2.5), xdm.Decimal(2), xdm.String("1"), xdm.Untyped("01"))
	right := atoms(xdm.Untyped("1"), xdm.Untyped("2"), xdm.Untyped("01"))
	e := joinEngine(left, right)
	out := diffEval(t, e, joinQuery("="))
	if len(out) != 10 { // 5 matching pairs, two items each
		t.Fatalf("len = %d, want 10: %s", len(out), xdm.MarshalSequence(out))
	}
}

func TestHashJoinValueCompare(t *testing.T) {
	left := atoms(xdm.Untyped("10"), xdm.Untyped("20"), xdm.Untyped("absent"))
	right := atoms(xdm.Untyped("20"), xdm.Untyped("10"), xdm.Untyped("10"))
	e := joinEngine(left, right)
	out := diffEval(t, e, joinQuery("eq"))
	if len(out) != 6 { // (10,10)x2 + (20,20), two items per match
		t.Fatalf("len = %d, want 6", len(out))
	}
}

func TestHashJoinNaNSemantics(t *testing.T) {
	// OrderAtomic treats NaN as equal to every number, so an untyped "NaN"
	// on the build side matches numeric probes in the naive pipeline; the
	// residual list must preserve that.
	left := atoms(xdm.Double(5))
	right := atoms(xdm.Untyped("NaN"), xdm.Untyped("7"))
	e := joinEngine(left, right)
	out := diffEval(t, e, joinQuery("="))
	if len(out) != 2 {
		t.Fatalf("len = %d, want 2 (Double 5 matches untyped NaN)", len(out))
	}
}

func TestHashJoinErrorParityOnResidual(t *testing.T) {
	// Booleans only compare with booleans: naive errors on the first
	// (number, boolean) pair; the residual list must reproduce that.
	left := atoms(xdm.Integer(1))
	right := atoms(xdm.Boolean(true))
	e := joinEngine(left, right)
	diffEval(t, e, joinQuery("=")) // both sides must error identically
}

func TestHashJoinEmptyAndMultiItemKeys(t *testing.T) {
	// Join on element children: some rows have no key child (empty key —
	// never matches), one has two (general comparison matches either).
	mk := func(name string, keys ...string) *xdm.Element {
		el := xdm.NewElement(name)
		for _, k := range keys {
			el.AddChild(xdm.NewTextElement("K", k))
		}
		return el
	}
	left := xdm.Sequence{mk("L", "1"), mk("L", "2"), mk("L")}
	right := xdm.Sequence{mk("R", "9", "2"), mk("R"), mk("R", "1")}
	q := &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "j", Namespace: "urn:j", Location: "j.xsd"},
		}},
		Body: &xquery.FLWOR{
			Clauses: []xquery.Clause{
				&xquery.For{Var: "a", In: xquery.Call("j:L")},
				&xquery.For{Var: "b", In: xquery.Call("j:R")},
				&xquery.Where{Cond: &xquery.Binary{Op: "=",
					Left:  xquery.ChildPath("a", "K"),
					Right: xquery.ChildPath("b", "K")}},
			},
			Return: &xquery.Seq{Items: []xquery.Expr{
				xquery.Call("fn:data", xquery.ChildPath("a", "K")),
				xquery.Call("fn:data", xquery.ChildPath("b", "K")),
			}},
		},
	}
	e := joinEngine(left, right)
	out := diffEval(t, e, q)
	if len(out) != 5 { // ("1","1") and ("2", ("9","2") both atoms)
		t.Fatalf("len = %d: %s", len(out), xdm.MarshalSequence(out))
	}
}

func TestPlanPredicatePushdown(t *testing.T) {
	// where references only $a, so it must run before the $b loop.
	q := joinQuery("=")
	flwor := q.Body.(*xquery.FLWOR)
	flwor.Clauses[2] = &xquery.Where{Cond: &xquery.Binary{Op: "and",
		Left:  &xquery.Binary{Op: "=", Left: xquery.VarRef("a"), Right: xquery.Str("x")},
		Right: &xquery.Binary{Op: "=", Left: xquery.VarRef("a"), Right: xquery.VarRef("b")}}}
	p := NewPlan(q)
	if p.PredicatesPushed != 1 {
		t.Fatalf("PredicatesPushed = %d, want 1", p.PredicatesPushed)
	}
	if p.HashJoins != 1 {
		t.Fatalf("HashJoins = %d, want 1 (the $a = $b conjunct)", p.HashJoins)
	}
	fp := p.flwors[flwor]
	ops := fp.segments[0].ops
	// for $a, filter [$a = "x"], hash-join $b.
	if len(ops) != 3 || ops[0].kind != opKindFor || ops[1].kind != opKindFilter || !ops[1].pushed ||
		ops[2].kind != opKindFor || ops[2].hash == nil {
		t.Fatalf("unexpected pipeline: %v", p.Describe())
	}
	// And the engine result matches naive.
	e := joinEngine(atoms(xdm.String("x"), xdm.String("z")), atoms(xdm.Untyped("x"), xdm.Untyped("z")))
	out := diffEval(t, e, q)
	if len(out) != 2 {
		t.Fatalf("len = %d, want 2", len(out))
	}
}

func TestPlanInvariantHoisting(t *testing.T) {
	// let and inner for sources that ignore the outer variable are
	// invariant; a source referencing it is not.
	q := joinQuery("=")
	flwor := q.Body.(*xquery.FLWOR)
	flwor.Clauses = []xquery.Clause{
		&xquery.For{Var: "a", In: xquery.Call("j:L")},
		&xquery.Let{Var: "n", Expr: xquery.Call("fn:count", xquery.Call("j:R"))},
		&xquery.Let{Var: "m", Expr: xquery.Call("fn:count", xquery.VarRef("a"))},
		&xquery.For{Var: "b", In: xquery.Call("j:R")},
	}
	flwor.Return = &xquery.Seq{Items: []xquery.Expr{xquery.VarRef("n"), xquery.VarRef("m")}}
	p := NewPlan(q)
	if p.InvariantsHoisted != 2 { // let $n and for $b; let $m is variant
		t.Fatalf("InvariantsHoisted = %d, want 2", p.InvariantsHoisted)
	}
	e := joinEngine(atoms(xdm.Integer(1), xdm.Integer(2)), atoms(xdm.Integer(3)))
	diffEval(t, e, q)
}

func TestPlanInvariantForEvaluatedOnce(t *testing.T) {
	calls := 0
	e := New()
	e.Register("urn:j", "L", func([]xdm.Sequence) (xdm.Sequence, error) {
		return atoms(xdm.Integer(1), xdm.Integer(2), xdm.Integer(3)), nil
	})
	e.Register("urn:j", "R", func([]xdm.Sequence) (xdm.Sequence, error) {
		calls++
		return atoms(xdm.Integer(2)), nil
	})
	q := joinQuery("=")
	out, err := e.EvalStream(context.Background(), NewPlan(q), nil, nil).Drain()
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("inner source evaluated %d times, want 1", calls)
	}
	if len(out) != 2 {
		t.Fatalf("len = %d, want 2", len(out))
	}
}

func TestPlanGroupByBarrier(t *testing.T) {
	// A predicate on the grouping key cannot move before the group by.
	q := &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "j", Namespace: "urn:j", Location: "j.xsd"},
		}},
		Body: &xquery.FLWOR{
			Clauses: []xquery.Clause{
				&xquery.For{Var: "r", In: xquery.Call("j:L")},
				&xquery.GroupBy{InVar: "r", PartitionVar: "part",
					Keys: []xquery.GroupKey{{Expr: xquery.VarRef("r"), Var: "k"}}},
				&xquery.Where{Cond: &xquery.Binary{Op: ">",
					Left: xquery.Call("fn:count", xquery.VarRef("part")), Right: xquery.Num("1")}},
			},
			Return: xquery.VarRef("k"),
		},
	}
	p := NewPlan(q)
	if p.PredicatesPushed != 0 {
		t.Fatalf("PredicatesPushed = %d, want 0 (group-by barrier)", p.PredicatesPushed)
	}
	fp := p.flwors[q.Body.(*xquery.FLWOR)]
	if len(fp.segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(fp.segments))
	}
	if len(fp.segments[1].ops) != 1 || fp.segments[1].ops[0].kind != opKindFilter {
		t.Fatalf("HAVING filter not in post-group segment: %v", p.Describe())
	}
	e := joinEngine(atoms(xdm.Untyped("a"), xdm.Untyped("b"), xdm.Untyped("a")), nil)
	out := diffEval(t, e, q)
	if len(out) != 1 || out[0].(xdm.Atomic).Lexical() != "a" {
		t.Fatalf("out = %s", xdm.MarshalSequence(out))
	}
}

func TestPlanShadowedBindersFallBack(t *testing.T) {
	// Variable shadowing makes "earliest binding" ambiguous; the planner
	// must keep everything at its original position.
	q := &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "j", Namespace: "urn:j", Location: "j.xsd"},
		}},
		Body: &xquery.FLWOR{
			Clauses: []xquery.Clause{
				&xquery.For{Var: "x", In: xquery.Call("j:L")},
				&xquery.For{Var: "x", In: xquery.Call("j:R")},
				&xquery.Where{Cond: &xquery.Binary{Op: "=", Left: xquery.VarRef("x"), Right: xquery.Str("r")}},
			},
			Return: xquery.VarRef("x"),
		},
	}
	p := NewPlan(q)
	if p.PredicatesPushed != 0 || p.HashJoins != 0 || p.InvariantsHoisted != 0 {
		t.Fatalf("shadowed FLWOR must not be rewritten: %+v", p)
	}
	e := joinEngine(atoms(xdm.String("l")), atoms(xdm.String("r")))
	out := diffEval(t, e, q)
	if len(out) != 1 {
		t.Fatalf("len = %d, want 1", len(out))
	}
}

func TestPlanOrderByCrossable(t *testing.T) {
	// A filter written after order by runs before the sort (filtering
	// commutes with a stable sort) — and results still match naive.
	q := &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "j", Namespace: "urn:j", Location: "j.xsd"},
		}},
		Body: &xquery.FLWOR{
			Clauses: []xquery.Clause{
				&xquery.For{Var: "r", In: xquery.Call("j:L")},
				&xquery.OrderByClause{Specs: []xquery.OrderSpec{{Expr: xquery.VarRef("r"), Descending: true}}},
				&xquery.Where{Cond: &xquery.Binary{Op: "!=", Left: xquery.VarRef("r"), Right: xquery.Str("b")}},
			},
			Return: xquery.VarRef("r"),
		},
	}
	p := NewPlan(q)
	if p.PredicatesPushed != 1 {
		t.Fatalf("PredicatesPushed = %d, want 1", p.PredicatesPushed)
	}
	e := joinEngine(atoms(xdm.Untyped("a"), xdm.Untyped("b"), xdm.Untyped("c")), nil)
	out := diffEval(t, e, q)
	if got := xdm.MarshalSequence(out); got != "c a" {
		t.Fatalf("out = %q, want %q", got, "c a")
	}
}

func TestHashJoinPreservesNestedLoopOrder(t *testing.T) {
	// Matches must emit in build-source order per probe tuple, exactly as
	// the naive inner loop would.
	left := atoms(xdm.Untyped("k"))
	right := atoms(xdm.Untyped("k"), xdm.Untyped("z"), xdm.Untyped("k"), xdm.Untyped("k"))
	e := joinEngine(left, right)
	q := &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "j", Namespace: "urn:j", Location: "j.xsd"},
		}},
		Body: &xquery.FLWOR{
			Clauses: []xquery.Clause{
				&xquery.For{Var: "a", In: xquery.Call("j:L")},
				&xquery.For{Var: "b", In: xquery.Call("j:R"), At: ""},
				&xquery.Where{Cond: &xquery.Binary{Op: "=", Left: xquery.VarRef("a"), Right: xquery.VarRef("b")}},
			},
			Return: xquery.VarRef("b"),
		},
	}
	out := diffEval(t, e, q)
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3", len(out))
	}
}

func TestPlanPositionalVarDisablesHash(t *testing.T) {
	// `at` positions refer to the unfiltered source; a hash join would
	// renumber them, so the planner must not use one.
	q := joinQuery("=")
	q.Body.(*xquery.FLWOR).Clauses[1].(*xquery.For).At = "pos"
	q.Body.(*xquery.FLWOR).Return = xquery.VarRef("pos")
	p := NewPlan(q)
	if p.HashJoins != 0 {
		t.Fatalf("HashJoins = %d, want 0 with a positional variable", p.HashJoins)
	}
	e := joinEngine(atoms(xdm.Untyped("q")), atoms(xdm.Untyped("p"), xdm.Untyped("q")))
	out := diffEval(t, e, q)
	if xdm.MarshalSequence(out) != "2" {
		t.Fatalf("out = %s, want 2", xdm.MarshalSequence(out))
	}
}

// hoistedFilterQuery is `for $a in j:L() where $a > xs:integer($p) return
// $a`: the right operand reads nothing the FLWOR binds and casts, so the
// planner gives it a state slot.
func hoistedFilterQuery() *xquery.Query {
	return &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "j", Namespace: "urn:j", Location: "j.xsd"},
		}},
		Body: &xquery.FLWOR{
			Clauses: []xquery.Clause{
				&xquery.For{Var: "a", In: xquery.Call("j:L")},
				&xquery.Where{Cond: &xquery.Binary{Op: ">", Left: xquery.VarRef("a"),
					Right: xquery.Call("xs:integer", xquery.VarRef("p"))}},
			},
			Return: xquery.VarRef("a"),
		},
	}
}

// A hoisted filter operand is evaluated by the first tuple to reach the
// filter and not before: with no tuples its cast error is never raised,
// with one it is, and either way planned agrees with naive.
func TestPlanHoistedOperandIsLazy(t *testing.T) {
	q := hoistedFilterQuery()
	p := NewPlan(q)
	if p.InvariantsHoisted != 1 {
		t.Fatalf("InvariantsHoisted = %d, want 1:\n%s", p.InvariantsHoisted, strings.Join(p.Describe(), "\n"))
	}
	ctx := context.Background()
	bad := map[string]xdm.Sequence{"p": atoms(xdm.String("abc"))}
	if out, err := joinEngine(nil, nil).EvalStream(ctx, p, bad, nil).Drain(); err != nil || len(out) != 0 {
		t.Fatalf("no tuples: out=%v err=%v, want empty and no cast error", out, err)
	}
	e := joinEngine(atoms(xdm.Integer(1), xdm.Integer(5), xdm.Integer(9)), nil)
	if _, err := e.EvalStream(ctx, p, bad, nil).Drain(); err == nil || !strings.Contains(err.Error(), "cannot cast") {
		t.Fatalf("with tuples the cast error must surface, got %v", err)
	}
	if _, err := e.EvalNaive(ctx, q, bad); err == nil {
		t.Fatal("naive must raise the cast error too")
	}
	good := map[string]xdm.Sequence{"p": atoms(xdm.String("4"))}
	out, err := e.EvalStream(ctx, p, good, nil).Drain()
	if err != nil || xdm.MarshalSequence(out) != "5 9" {
		t.Fatalf("out = %q, err = %v; want \"5 9\"", xdm.MarshalSequence(out), err)
	}
}

// The hoisted operand's slot is shared by morsel workers and the merger's
// serial re-run, so a cancellation seen while filling it must not be
// cached. step() polls the context every 1024th step: start the counter at
// every phase of that cycle so the poll lands inside the operand for some
// of them, evaluate the filter under a cancelled context, then again under
// a live one — the second call must never read back context.Canceled.
func TestPlanHoistedOperandIgnoresCancellation(t *testing.T) {
	q := hoistedFilterQuery()
	fp := NewPlan(q).flwors[q.Body.(*xquery.FLWOR)]
	var filter *planOp
	for i := range fp.segments[0].ops {
		if op := &fp.segments[0].ops[i]; op.kind == opKindFilter {
			filter = op
		}
	}
	if filter == nil || filter.operandState[1] < 0 {
		t.Fatalf("no hoisted filter in %v", fp.segments[0].ops)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for start := int64(1010); start < 1030; start++ {
		ex := &flworExec{fp: fp, states: make([]opState, fp.numStates)}
		root := &scope{st: &evalState{engine: New(), prefixes: map[string]string{}, counters: &evalCounters{steps: start},
			vars: map[string]xdm.Sequence{"p": atoms(xdm.String("4"))}}}
		tuple := root.bind("a", atoms(xdm.Integer(5)))
		counters := tuple.st.counters
		ex.evalFilter(filter, tuple.on(cancelled, counters)) // may fail with context.Canceled; must not poison the slot
		ok, err := ex.evalFilter(filter, tuple.on(context.Background(), counters))
		if err != nil || !ok {
			t.Fatalf("steps start %d: filter after a cancelled first evaluation = %v, %v; want true, nil", start, ok, err)
		}
	}
}

// A per-evaluation build table is filled by whichever prober gets there
// first — possibly a morsel worker a sibling has just cancelled. Its
// cancellation must not stick: the next prober, on a live context, builds
// the table and every later one reads it.
func TestSharedTableIgnoresCancellation(t *testing.T) {
	calls := 0
	e := joinEngine(atoms(xdm.Integer(1), xdm.Integer(2)), nil)
	e.RegisterContext("urn:j", "R", func(ctx context.Context, _ []xdm.Sequence) (xdm.Sequence, error) {
		calls++
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return atoms(xdm.Integer(2)), nil
	})
	q, err := xquery.Parse(`import schema namespace j = "urn:j" at "j.xsd";
for $a in j:L() where fn:not(fn:exists(for $b in j:R() where $b = $a return $b)) return $a`)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(q)
	var probe *planOp
	for _, fp := range p.ordered {
		for _, seg := range fp.segments {
			for i := range seg.ops {
				if seg.ops[i].hash != nil && seg.ops[i].hash.table >= 0 {
					probe = &seg.ops[i]
				}
			}
		}
	}
	if probe == nil {
		t.Fatalf("no per-evaluation probe in:\n%s", strings.Join(p.Describe(), "\n"))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	root := e.rootScope(cancelled, q, p, nil, &evalCounters{})
	if _, err := root.st.tables.get(probe, root); err == nil {
		t.Fatal("a build under a cancelled context must fail")
	}
	live := root.on(context.Background(), root.st.counters)
	for i := 0; i < 2; i++ {
		h, err := root.st.tables.get(probe, live)
		if err != nil || len(h.items) != 1 {
			t.Fatalf("probe %d after a cancelled build: %v, %v", i, h, err)
		}
	}
	if calls != 2 {
		t.Fatalf("source called %d times, want 2 (cancelled build, then one live build)", calls)
	}
}

// Decimal keys of -0 and 0 are equal (OrderAtomic compares the values), so
// they must share a bucket: a key filed by its formatted lexical form split
// "-0" from "0" and the hash join missed the pairs the nested loop finds.
// The join and a correlated NOT EXISTS over the same keys, planned both
// ways, against naive.
func TestHashJoinNegativeZero(t *testing.T) {
	row := func(name, k string) *xdm.Element {
		el := xdm.NewElement(name)
		el.AddChild(xdm.NewTextElement("K", k))
		return el
	}
	e := New()
	e.RegisterRows("urn:j", "A", []*xdm.Element{row("A", "0"), row("A", "1"), row("A", "2")})
	e.RegisterRows("urn:j", "B", []*xdm.Element{row("B", "-0"), row("B", "-0.0"), row("B", "1.0")})
	const prolog = `import schema namespace j = "urn:j" at "j.xsd";` + "\n"
	for _, c := range []struct {
		body string
		want string
	}{
		{`for $a in j:A() for $b in j:B() where xs:decimal($a/K) = xs:decimal($b/K) return (fn:data($a/K), fn:data($b/K))`,
			"0 -0 0 -0.0 1 1.0"},
		{`for $a in j:A() where fn:not(fn:exists(for $b in j:B() where xs:decimal($b/K) = xs:decimal($a/K) return $b)) return fn:data($a/K)`,
			"2"},
	} {
		q, err := xquery.Parse(prolog + c.body)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := e.EvalNaive(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := xdm.MarshalSequence(naive); got != c.want {
			t.Fatalf("%s: naive = %q, want %q", c.body, got, c.want)
		}
		for _, p := range []*Plan{NewPlan(q), NewPlanStats(q, e)} {
			if p.HashJoins != 1 {
				t.Fatalf("%s: no hash join:\n%s", c.body, strings.Join(p.Describe(), "\n"))
			}
			got, err := e.EvalStream(context.Background(), p, nil, nil).Drain()
			if err != nil {
				t.Fatal(err)
			}
			if g := xdm.MarshalSequence(got); g != c.want {
				t.Fatalf("%s: planned = %q, naive %q", c.body, g, c.want)
			}
		}
	}
}
