package xqeval

// Failure injection: a data service function is an external integration
// point (database, Web service, custom code), so the engine must surface
// its failures as query errors without panicking or corrupting state.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

func failingEngine(failAfter int) *Engine {
	e := New()
	calls := 0
	e.Register("urn:flaky", "ROWS", func(args []xdm.Sequence) (xdm.Sequence, error) {
		calls++
		if calls > failAfter {
			return nil, errors.New("backend unavailable")
		}
		row := xdm.NewElement("ROWS")
		row.AddChild(xdm.NewTextElement("N", "1"))
		return xdm.SequenceOf(row), nil
	})
	return e
}

func flakyQuery() *xquery.Query {
	return &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "f", Namespace: "urn:flaky", Location: "flaky.xsd"},
		}},
		Body: &xquery.FLWOR{
			Clauses: []xquery.Clause{&xquery.For{Var: "r", In: xquery.Call("f:ROWS")}},
			Return:  xquery.Call("fn:data", xquery.ChildPath("r", "N")),
		},
	}
}

func TestDataServiceErrorPropagates(t *testing.T) {
	e := failingEngine(0)
	_, err := evalQuery(e, flakyQuery(), nil)
	if err == nil || !strings.Contains(err.Error(), "backend unavailable") {
		t.Fatalf("err = %v", err)
	}
}

func TestEngineUsableAfterFailure(t *testing.T) {
	e := failingEngine(1)
	// First call succeeds.
	out, err := evalQuery(e, flakyQuery(), nil)
	if err != nil || len(out) != 1 {
		t.Fatalf("first eval: %v %v", out, err)
	}
	// Second fails.
	if _, err := evalQuery(e, flakyQuery(), nil); err == nil {
		t.Fatal("second eval should fail")
	}
	// Other functions on the same engine keep working.
	e.RegisterRows("urn:ok", "T", []*xdm.Element{xdm.NewElement("T")})
	q := &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "k", Namespace: "urn:ok", Location: "ok.xsd"},
		}},
		Body: xquery.Call("fn:count", xquery.Call("k:T")),
	}
	out, err = evalQuery(e, q, nil)
	if err != nil || out[0].(xdm.Integer) != 1 {
		t.Fatalf("engine corrupted after failure: %v %v", out, err)
	}
}

func TestErrorInsideOuterJoinFilter(t *testing.T) {
	// Failure surfaced from inside a filter predicate (the outer-join
	// pattern evaluates the right side per left row in the naive pipeline).
	// The planner hoists the loop-invariant let, so the planned pipeline
	// calls the backend once and never reaches the injected failure — the
	// error-timing divergence XQuery §2.3.4 permits an optimizer. Both
	// behaviors are pinned here.
	q := &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "f", Namespace: "urn:flaky", Location: "flaky.xsd"},
		}},
		Body: &xquery.FLWOR{
			Clauses: []xquery.Clause{
				&xquery.For{Var: "l", In: &xquery.Seq{Items: []xquery.Expr{xquery.Num("1"), xquery.Num("2"), xquery.Num("3")}}},
				&xquery.Let{Var: "t", Expr: &xquery.Filter{
					Base:       xquery.Call("f:ROWS"),
					Predicates: []xquery.Expr{xquery.Call("fn:true")},
				}},
			},
			Return: xquery.Call("fn:count", xquery.VarRef("t")),
		},
	}
	_, err := failingEngine(2).EvalNaive(context.Background(), q, nil)
	if err == nil || !strings.Contains(err.Error(), "backend unavailable") {
		t.Fatalf("naive err = %v", err)
	}
	out, err := evalQuery(failingEngine(2), q, nil)
	if err != nil {
		t.Fatalf("planned eval should hoist the invariant let past the failure: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("planned eval rows = %d, want 3", len(out))
	}
}

// The evaluator's own error for an unknown function is dynamic (Check
// rejects one before any plan exists, so only naive evaluation meets it).
func TestDynamicErrorType(t *testing.T) {
	e := New()
	_, err := e.EvalNaive(context.Background(), &xquery.Query{Body: xquery.Call("fn:no-such")}, nil)
	var dyn *Error
	if !errors.As(err, &dyn) {
		t.Fatalf("err type = %T", err)
	}
	if !strings.Contains(dyn.Error(), "dynamic error") {
		t.Fatalf("message = %q", dyn.Error())
	}
}

func TestCallUnknownFunction(t *testing.T) {
	e := New()
	if _, err := e.Call("urn:none", "F", nil); err == nil {
		t.Fatal("Call of unregistered function should fail")
	}
}
