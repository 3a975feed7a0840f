package xqeval

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// TestEngineSurface pins the engine's evaluation entries: EvalStream is
// the one production entry (a materialized result is a drained cursor),
// and the naive pair is the tests' oracle.
func TestEngineSurface(t *testing.T) {
	want := []string{"EvalNaive", "EvalStream", "EvalStreamNaive"}
	var got []string
	typ := reflect.TypeOf(&Engine{})
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; strings.HasPrefix(name, "Eval") {
			got = append(got, name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*Engine evaluation entries = %v, want %v", got, want)
	}
}

// testEngine builds an engine with a small CUSTOMERS/PAYMENTS data set
// matching the paper's examples.
func testEngine() *Engine {
	e := New()
	e.RegisterRows("ld:TestDataServices/CUSTOMERS", "CUSTOMERS", []*xdm.Element{
		customerRow(55, "Joe"),
		customerRow(23, "Sue"),
		customerRow(40, "Ann"),
	})
	// Payment rows: Joe has two payments, Sue one, Ann none.
	e.RegisterRows("ld:TestDataServices/PAYMENTS", "PAYMENTS", []*xdm.Element{
		paymentRow(1, 55, "100.50"),
		paymentRow(2, 55, "75.00"),
		paymentRow(3, 23, "12.25"),
	})
	return e
}

func customerRow(id int, name string) *xdm.Element {
	row := xdm.NewElement("CUSTOMERS")
	row.AddChild(xdm.NewTextElement("CUSTOMERID", itoa(id)))
	row.AddChild(xdm.NewTextElement("CUSTOMERNAME", name))
	return row
}

func paymentRow(pid, cust int, amount string) *xdm.Element {
	row := xdm.NewElement("PAYMENTS")
	row.AddChild(xdm.NewTextElement("PAYMENTID", itoa(pid)))
	row.AddChild(xdm.NewTextElement("CUSTID", itoa(cust)))
	row.AddChild(xdm.NewTextElement("PAYMENT", amount))
	return row
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func customersQuery(body xquery.Expr) *xquery.Query {
	return &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "ns0", Namespace: "ld:TestDataServices/CUSTOMERS", Location: "ld:TestDataServices/schemas/CUSTOMERS.xsd"},
			{Prefix: "ns1", Namespace: "ld:TestDataServices/PAYMENTS", Location: "ld:TestDataServices/schemas/PAYMENTS.xsd"},
		}},
		Body: body,
	}
}

// evalQuery compiles q and evaluates it materialized — what a caller
// holding only an AST does.
func evalQuery(e *Engine, q *xquery.Query, ext map[string]xdm.Sequence) (xdm.Sequence, error) {
	p, err := e.CompileAST(q, externalNames(ext))
	if err != nil {
		return nil, err
	}
	return e.EvalStream(context.Background(), p, ext, nil).Drain()
}

func evalBody(t *testing.T, body xquery.Expr) xdm.Sequence {
	t.Helper()
	out, err := evalQuery(testEngine(), customersQuery(body), nil)
	if err != nil {
		t.Fatalf("eval: %v\nquery:\n%s", err, xquery.String(body))
	}
	return out
}

func TestEvalLiteralsAndVars(t *testing.T) {
	out := evalBody(t, xquery.Str("hello"))
	if len(out) != 1 || out[0].(xdm.String) != "hello" {
		t.Fatalf("out = %v", out)
	}
	out = evalBody(t, xquery.Num("42"))
	if out[0].(xdm.Integer) != 42 {
		t.Fatalf("out = %v", out)
	}
	out = evalBody(t, xquery.Num("2.5"))
	if out[0].(xdm.Decimal) != 2.5 {
		t.Fatalf("out = %v", out)
	}
	out = evalBody(t, xquery.Num("1e2"))
	if out[0].(xdm.Double) != 100 {
		t.Fatalf("out = %v", out)
	}
	if _, err := evalQuery(testEngine(), customersQuery(xquery.VarRef("nope")), nil); err == nil {
		t.Fatal("unbound variable should error")
	}
}

func TestEvalDataServiceFunction(t *testing.T) {
	out := evalBody(t, xquery.Call("ns0:CUSTOMERS"))
	if len(out) != 3 {
		t.Fatalf("rows = %d", len(out))
	}
	if elementOf(out[0]).FirstChildElement("CUSTOMERNAME").StringValue() != "Joe" {
		t.Fatal("first row should be Joe")
	}
}

func TestEvalUnknownFunction(t *testing.T) {
	_, err := evalQuery(testEngine(), customersQuery(xquery.Call("ns0:NOPE")), nil)
	if err == nil || !strings.Contains(err.Error(), "no data service function") {
		t.Fatalf("err = %v", err)
	}
	_, err = evalQuery(testEngine(), customersQuery(xquery.Call("fn:no-such")), nil)
	if err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("err = %v", err)
	}
}

// TestEvalExample3Shape runs the paper's Example 3: for over CUSTOMERS with
// a where on CUSTOMERNAME eq "Sue".
func TestEvalExample3Shape(t *testing.T) {
	f := &xquery.FLWOR{
		Clauses: []xquery.Clause{
			&xquery.For{Var: "c", In: xquery.Call("ns0:CUSTOMERS")},
			&xquery.Where{Cond: &xquery.Binary{Op: "eq",
				Left:  xquery.ChildPath("c", "CUSTOMERNAME"),
				Right: xquery.Str("Sue")}},
		},
		Return: &xquery.ElementCtor{Name: "RECORD", Content: []xquery.ElemContent{
			xquery.TextElem("CUSTOMERS.CUSTOMERID", xquery.Call("fn:data", xquery.ChildPath("c", "CUSTOMERID"))),
			xquery.TextElem("CUSTOMERS.CUSTOMERNAME", xquery.Call("fn:data", xquery.ChildPath("c", "CUSTOMERNAME"))),
		}},
	}
	out := evalBody(t, f)
	if len(out) != 1 {
		t.Fatalf("rows = %d", len(out))
	}
	rec := elementOf(out[0])
	if rec.FirstChildElement("CUSTOMERS.CUSTOMERID").StringValue() != "23" {
		t.Fatalf("record = %s", xdm.Marshal(rec))
	}
}

func TestEvalLetBindsFullSequence(t *testing.T) {
	f := &xquery.FLWOR{
		Clauses: []xquery.Clause{
			&xquery.Let{Var: "all", Expr: xquery.Call("ns0:CUSTOMERS")},
		},
		Return: xquery.Call("fn:count", xquery.VarRef("all")),
	}
	out := evalBody(t, f)
	if out[0].(xdm.Integer) != 3 {
		t.Fatalf("count = %v", out)
	}
}

func TestEvalNestedForProducesCrossProduct(t *testing.T) {
	f := &xquery.FLWOR{
		Clauses: []xquery.Clause{
			&xquery.For{Var: "c", In: xquery.Call("ns0:CUSTOMERS")},
			&xquery.For{Var: "p", In: xquery.Call("ns1:PAYMENTS")},
		},
		Return: xquery.Num("1"),
	}
	out := evalBody(t, f)
	if len(out) != 9 {
		t.Fatalf("cross product size = %d", len(out))
	}
}

func TestEvalJoinViaWhere(t *testing.T) {
	f := &xquery.FLWOR{
		Clauses: []xquery.Clause{
			&xquery.For{Var: "c", In: xquery.Call("ns0:CUSTOMERS")},
			&xquery.For{Var: "p", In: xquery.Call("ns1:PAYMENTS")},
			&xquery.Where{Cond: &xquery.Binary{Op: "=",
				Left:  xquery.ChildPath("c", "CUSTOMERID"),
				Right: xquery.ChildPath("p", "CUSTID")}},
		},
		Return: xquery.Call("fn:data", xquery.ChildPath("p", "PAYMENT")),
	}
	out := evalBody(t, f)
	if len(out) != 3 {
		t.Fatalf("join rows = %d: %v", len(out), out)
	}
}

// TestEvalOuterJoinFilterShape exercises the paper's Example 10 pattern:
// let $t := ns1:PAYMENTS()[($c/CUSTOMERID = CUSTID)] with if-empty handling.
func TestEvalOuterJoinFilterShape(t *testing.T) {
	f := &xquery.FLWOR{
		Clauses: []xquery.Clause{
			&xquery.For{Var: "c", In: xquery.Call("ns0:CUSTOMERS")},
			&xquery.Let{Var: "t", Expr: &xquery.Filter{
				Base: xquery.Call("ns1:PAYMENTS"),
				Predicates: []xquery.Expr{&xquery.Binary{Op: "=",
					Left:  xquery.ChildPath("c", "CUSTOMERID"),
					Right: &xquery.RelPath{Steps: []xquery.PathStep{{Name: "CUSTID"}}},
				}},
			}},
		},
		Return: &xquery.If{
			Cond: xquery.Call("fn:empty", xquery.VarRef("t")),
			Then: &xquery.ElementCtor{Name: "RECORD", Content: []xquery.ElemContent{
				xquery.TextElem("NAME", xquery.Call("fn:data", xquery.ChildPath("c", "CUSTOMERNAME"))),
			}},
			Else: &xquery.FLWOR{
				Clauses: []xquery.Clause{&xquery.For{Var: "p", In: xquery.VarRef("t")}},
				Return: &xquery.ElementCtor{Name: "RECORD", Content: []xquery.ElemContent{
					xquery.TextElem("NAME", xquery.Call("fn:data", xquery.ChildPath("c", "CUSTOMERNAME"))),
					xquery.TextElem("PAYMENT", xquery.Call("fn:data", xquery.ChildPath("p", "PAYMENT"))),
				}},
			},
		},
	}
	out := evalBody(t, f)
	// Joe×2 + Sue×1 + Ann (no payments, preserved) = 4 records.
	if len(out) != 4 {
		t.Fatalf("left outer join rows = %d", len(out))
	}
	var annRec *xdm.Element
	for _, it := range out {
		rec := elementOf(it)
		if rec.FirstChildElement("NAME").StringValue() == "Ann" {
			annRec = rec
		}
	}
	if annRec == nil {
		t.Fatal("Ann must be preserved by the outer join")
	}
	if annRec.FirstChildElement("PAYMENT") != nil {
		t.Fatal("Ann must have no PAYMENT element (NULL)")
	}
}

func TestEvalGroupByPartitions(t *testing.T) {
	// group payments by CUSTID; count and sum per group.
	f := &xquery.FLWOR{
		Clauses: []xquery.Clause{
			&xquery.For{Var: "p", In: xquery.Call("ns1:PAYMENTS")},
			&xquery.GroupBy{InVar: "p", PartitionVar: "part", Keys: []xquery.GroupKey{
				{Expr: xquery.ChildPath("p", "CUSTID"), Var: "cust"},
			}},
		},
		Return: &xquery.ElementCtor{Name: "G", Content: []xquery.ElemContent{
			xquery.TextElem("CUST", xquery.VarRef("cust")),
			xquery.TextElem("N", xquery.Call("fn:count", xquery.VarRef("part"))),
			xquery.TextElem("SUM", xquery.Call("fn:sum", xquery.Call("fn:data", xquery.ChildPath("part", "PAYMENT")))),
		}},
	}
	out := evalBody(t, f)
	if len(out) != 2 {
		t.Fatalf("groups = %d", len(out))
	}
	g0 := elementOf(out[0]) // first-encounter order: CUSTID 55
	if g0.FirstChildElement("CUST").StringValue() != "55" ||
		g0.FirstChildElement("N").StringValue() != "2" ||
		g0.FirstChildElement("SUM").StringValue() != "175.5" {
		t.Fatalf("group 0 = %s", xdm.Marshal(g0))
	}
	g1 := elementOf(out[1])
	if g1.FirstChildElement("CUST").StringValue() != "23" || g1.FirstChildElement("N").StringValue() != "1" {
		t.Fatalf("group 1 = %s", xdm.Marshal(g1))
	}
}

func TestEvalGroupByNullKeysFormOneGroup(t *testing.T) {
	e := New()
	r1 := xdm.NewElement("T") // no K child: NULL key
	r2 := xdm.NewElement("T")
	r3 := xdm.NewElement("T")
	r3.AddChild(xdm.NewTextElement("K", "x"))
	e.RegisterRows("urn:t", "T", []*xdm.Element{r1, r2, r3})
	q := &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{{Prefix: "t", Namespace: "urn:t", Location: "t.xsd"}}},
		Body: &xquery.FLWOR{
			Clauses: []xquery.Clause{
				&xquery.For{Var: "r", In: xquery.Call("t:T")},
				&xquery.GroupBy{InVar: "r", PartitionVar: "p", Keys: []xquery.GroupKey{
					{Expr: xquery.ChildPath("r", "K"), Var: "k"},
				}},
			},
			Return: xquery.Call("fn:count", xquery.VarRef("p")),
		},
	}
	out, err := evalQuery(e, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("groups = %d (NULL keys must group together)", len(out))
	}
	if out[0].(xdm.Integer) != 2 {
		t.Fatalf("NULL group size = %v", out[0])
	}
}

func TestEvalOrderBy(t *testing.T) {
	f := &xquery.FLWOR{
		Clauses: []xquery.Clause{
			&xquery.For{Var: "c", In: xquery.Call("ns0:CUSTOMERS")},
			&xquery.OrderByClause{Specs: []xquery.OrderSpec{
				{Expr: xquery.ChildPath("c", "CUSTOMERNAME")},
			}},
		},
		Return: xquery.Call("fn:data", xquery.ChildPath("c", "CUSTOMERNAME")),
	}
	out := evalBody(t, f)
	got := []string{}
	for _, it := range out {
		got = append(got, string(it.(xdm.Untyped)))
	}
	if strings.Join(got, ",") != "Ann,Joe,Sue" {
		t.Fatalf("order = %v", got)
	}
}

func TestEvalOrderByDescendingAndNumeric(t *testing.T) {
	f := &xquery.FLWOR{
		Clauses: []xquery.Clause{
			&xquery.For{Var: "c", In: xquery.Call("ns0:CUSTOMERS")},
			&xquery.OrderByClause{Specs: []xquery.OrderSpec{
				{Expr: &xquery.Cast{Type: "xs:integer", Operand: xquery.Call("fn:data", xquery.ChildPath("c", "CUSTOMERID"))}, Descending: true},
			}},
		},
		Return: xquery.Call("fn:data", xquery.ChildPath("c", "CUSTOMERID")),
	}
	out := evalBody(t, f)
	got := []string{}
	for _, it := range out {
		got = append(got, string(it.(xdm.Untyped)))
	}
	if strings.Join(got, ",") != "55,40,23" {
		t.Fatalf("order = %v", got)
	}
}

func TestEvalOrderByEmptyLeastAndGreatest(t *testing.T) {
	e := New()
	mk := func(v string) *xdm.Element {
		r := xdm.NewElement("T")
		if v != "" {
			r.AddChild(xdm.NewTextElement("V", v))
		}
		return r
	}
	e.RegisterRows("urn:t", "T", []*xdm.Element{mk("b"), mk(""), mk("a")})
	run := func(emptyGreatest bool) []string {
		q := &xquery.Query{
			Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{{Prefix: "t", Namespace: "urn:t", Location: "x"}}},
			Body: &xquery.FLWOR{
				Clauses: []xquery.Clause{
					&xquery.For{Var: "r", In: xquery.Call("t:T")},
					&xquery.OrderByClause{Specs: []xquery.OrderSpec{
						{Expr: xquery.ChildPath("r", "V"), EmptyGreatest: emptyGreatest},
					}},
				},
				Return: xquery.Call("fn:string-join", &xquery.Seq{Items: []xquery.Expr{
					xquery.Call("fn:string", xquery.Call("fn-bea:if-empty", xquery.Call("fn:data", xquery.ChildPath("r", "V")), xquery.Str("NULL"))),
				}}, xquery.Str("")),
			},
		}
		out, err := evalQuery(e, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, it := range out {
			got = append(got, string(it.(xdm.String)))
		}
		return got
	}
	if got := run(false); strings.Join(got, ",") != "NULL,a,b" {
		t.Fatalf("empty least order = %v", got)
	}
	if got := run(true); strings.Join(got, ",") != "a,b,NULL" {
		t.Fatalf("empty greatest order = %v", got)
	}
}

func TestEvalGeneralVsValueComparison(t *testing.T) {
	// General = over sequences is existential.
	seq := &xquery.Seq{Items: []xquery.Expr{xquery.Num("1"), xquery.Num("2"), xquery.Num("3")}}
	out := evalBody(t, &xquery.Binary{Op: "=", Left: seq, Right: xquery.Num("2")})
	if out[0].(xdm.Boolean) != true {
		t.Fatal("existential = failed")
	}
	// Value comparison over empty yields empty.
	out = evalBody(t, &xquery.Binary{Op: "eq", Left: &xquery.EmptySeq{}, Right: xquery.Num("2")})
	if !out.Empty() {
		t.Fatalf("eq with empty operand = %v", out)
	}
	// General comparison over empty yields false.
	out = evalBody(t, &xquery.Binary{Op: "=", Left: &xquery.EmptySeq{}, Right: xquery.Num("2")})
	if out[0].(xdm.Boolean) != false {
		t.Fatal("general = with empty should be false")
	}
}

func TestEvalArithmeticNullPropagation(t *testing.T) {
	out := evalBody(t, &xquery.Binary{Op: "+", Left: &xquery.EmptySeq{}, Right: xquery.Num("2")})
	if !out.Empty() {
		t.Fatalf("() + 2 = %v, want ()", out)
	}
	out = evalBody(t, &xquery.Binary{Op: "*", Left: xquery.Num("6"), Right: xquery.Num("7")})
	if out[0].(xdm.Integer) != 42 {
		t.Fatalf("6*7 = %v", out)
	}
	out = evalBody(t, &xquery.Binary{Op: "div", Left: xquery.Num("7"), Right: xquery.Num("2")})
	if out[0].(xdm.Decimal) != 3.5 {
		t.Fatalf("7 div 2 = %v", out)
	}
	out = evalBody(t, &xquery.Binary{Op: "mod", Left: xquery.Num("7"), Right: xquery.Num("3")})
	if out[0].(xdm.Integer) != 1 {
		t.Fatalf("7 mod 3 = %v", out)
	}
}

func TestEvalLogicShortCircuit(t *testing.T) {
	// false and <error> should not evaluate the right side: a data service
	// that fails when called.
	e := testEngine()
	e.Register("ld:TestDataServices/CUSTOMERS", "FAIL", func([]xdm.Sequence) (xdm.Sequence, error) {
		return nil, dynErr("FAIL called")
	})
	for _, c := range []struct {
		op, left string
		want     xdm.Boolean
	}{{"and", "fn:false", false}, {"or", "fn:true", true}} {
		body := &xquery.Binary{Op: c.op, Left: xquery.Call(c.left), Right: xquery.Call("ns0:FAIL")}
		out, err := evalQuery(e, customersQuery(body), nil)
		if err != nil || out[0].(xdm.Boolean) != c.want {
			t.Fatalf("%s: out = %v, err = %v", xquery.String(body), out, err)
		}
	}
}

// Every boolean expression returns one of two shared sequences, so an
// append to one result must leave the next evaluation's result, and what
// was appended, alone.
func TestEvalSharedBooleanResults(t *testing.T) {
	e := testEngine()
	for _, src := range []string{`fn:exists(())`, `fn:not(fn:exists(()))`, `1 = 2`, `1 < 2`} {
		q, err := xquery.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		first, err := evalQuery(e, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := first.String()
		grown := append(first, xdm.String("appended"))
		second, err := evalQuery(e, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = append(second, xdm.String("overwrite"))
		if second.String() != want || grown[1] != xdm.String("appended") {
			t.Fatalf("%s: second result %v, appended %v; want %s and appended", src, second, grown, want)
		}
	}
}

func TestEvalIfAndQuantified(t *testing.T) {
	out := evalBody(t, &xquery.If{
		Cond: xquery.Call("fn:true"),
		Then: xquery.Str("yes"),
		Else: xquery.Str("no"),
	})
	if string(out[0].(xdm.String)) != "yes" {
		t.Fatalf("out = %v", out)
	}
	// some customer has name Sue
	out = evalBody(t, &xquery.Quantified{
		Var: "c", In: xquery.Call("ns0:CUSTOMERS"),
		Satisfies: &xquery.Binary{Op: "=",
			Left:  xquery.ChildPath("c", "CUSTOMERNAME"),
			Right: xquery.Str("Sue")},
	})
	if out[0].(xdm.Boolean) != true {
		t.Fatal("some failed")
	}
	// every customer has id > 10
	out = evalBody(t, &xquery.Quantified{
		Every: true,
		Var:   "c", In: xquery.Call("ns0:CUSTOMERS"),
		Satisfies: &xquery.Binary{Op: ">",
			Left:  xquery.ChildPath("c", "CUSTOMERID"),
			Right: xquery.Num("10")},
	})
	if out[0].(xdm.Boolean) != true {
		t.Fatal("every failed")
	}
	out = evalBody(t, &xquery.Quantified{
		Every: true,
		Var:   "c", In: xquery.Call("ns0:CUSTOMERS"),
		Satisfies: &xquery.Binary{Op: ">",
			Left:  xquery.ChildPath("c", "CUSTOMERID"),
			Right: xquery.Num("30")},
	})
	if out[0].(xdm.Boolean) != false {
		t.Fatal("every should be false")
	}
}

func TestEvalCastOfEmptyIsEmpty(t *testing.T) {
	out := evalBody(t, &xquery.Cast{Type: "xs:integer", Operand: &xquery.EmptySeq{}})
	if !out.Empty() {
		t.Fatalf("cast(()) = %v", out)
	}
}

func TestEvalElementConstruction(t *testing.T) {
	ctor := &xquery.ElementCtor{Name: "ROW", Content: []xquery.ElemContent{
		&xquery.TextContent{Text: "prefix "},
		&xquery.ElementCtor{Name: "INNER", Content: []xquery.ElemContent{
			&xquery.Enclosed{Expr: &xquery.Seq{Items: []xquery.Expr{xquery.Num("1"), xquery.Num("2")}}},
		}},
	}}
	out := evalBody(t, ctor)
	got := xdm.Marshal(elementOf(out[0]))
	want := "<ROW>prefix <INNER>1 2</INNER></ROW>"
	if got != want {
		t.Fatalf("got %s want %s", got, want)
	}
}

func TestEvalPositionalPredicate(t *testing.T) {
	out := evalBody(t, &xquery.Filter{
		Base:       xquery.Call("ns0:CUSTOMERS"),
		Predicates: []xquery.Expr{xquery.Num("2")},
	})
	if len(out) != 1 || elementOf(out[0]).FirstChildElement("CUSTOMERNAME").StringValue() != "Sue" {
		t.Fatalf("out = %v", out)
	}
}

func TestEvalExternalVariables(t *testing.T) {
	q := customersQuery(&xquery.Binary{Op: "+", Left: xquery.VarRef("p1"), Right: xquery.Num("1")})
	out, err := evalQuery(testEngine(), q, map[string]xdm.Sequence{
		"p1": xdm.SequenceOf(xdm.Integer(41)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(xdm.Integer) != 42 {
		t.Fatalf("out = %v", out)
	}
}

func TestEvalPathOverAtomicErrors(t *testing.T) {
	_, err := evalQuery(testEngine(), customersQuery(&xquery.Path{
		Base:  xquery.Num("1"),
		Steps: []xquery.PathStep{{Name: "X"}},
	}), nil)
	if err == nil {
		t.Fatal("path over atomic should error")
	}
}

// elementOf is a result item as an element: a planned RECORD of column
// copies is a flat xdm.Record, read here as the element it stands for.
func elementOf(it xdm.Item) *xdm.Element {
	if r, ok := it.(*xdm.Record); ok {
		return r.Element()
	}
	return it.(*xdm.Element)
}
