package xqeval

import (
	"context"
	"errors"
	"testing"

	"repro/internal/aqerr"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

func limitKind(t *testing.T, err error) aqerr.Kind {
	t.Helper()
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v (%T), want *aqerr.QueryError", err, err)
	}
	return qe.Kind
}

func TestMaxRowsAborts(t *testing.T) {
	e := bigEngine(100)
	e.SetLimits(Limits{MaxRows: 10})
	q := &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "b", Namespace: "urn:big", Location: "big.xsd"},
		}},
		Body: &xquery.FLWOR{
			Clauses: []xquery.Clause{&xquery.For{Var: "x", In: xquery.Call("b:T")}},
			Return:  xquery.Num("1"),
		},
	}
	for name, eval := range map[string]func() (xdm.Sequence, error){
		"planned": func() (xdm.Sequence, error) { return evalQuery(e, q, nil) },
		"naive": func() (xdm.Sequence, error) {
			return e.EvalNaiveWithTrace(context.Background(), q, nil, nil)
		},
	} {
		_, err := eval()
		if err == nil {
			t.Fatalf("%s: query over limit should fail", name)
		}
		if k := limitKind(t, err); k != aqerr.KindResourceLimit {
			t.Fatalf("%s: kind = %v, want resource-limit", name, k)
		}
	}
}

func TestMaxTuplesAborts(t *testing.T) {
	e := bigEngine(50) // 50³ = 125k tuples, limit far below
	e.SetLimits(Limits{MaxTuples: 1000})
	_, err := evalQuery(e, crossJoinQuery(), nil)
	if err == nil {
		t.Fatal("cross join over tuple limit should fail")
	}
	if k := limitKind(t, err); k != aqerr.KindResourceLimit {
		t.Fatalf("kind = %v, want resource-limit", k)
	}
}

func TestLimitsOffByDefault(t *testing.T) {
	e := bigEngine(20)
	q := crossJoinQuery()
	out, err := evalQuery(e, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 20*20*20 {
		t.Fatalf("rows = %d", len(out))
	}
}

func TestMiddlewareOrderAndLateRegistration(t *testing.T) {
	e := New()
	var order []string
	mw := func(tag string) Middleware {
		return func(name string, fn ContextFunc) ContextFunc {
			return func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
				order = append(order, tag+":"+name)
				return fn(ctx, args)
			}
		}
	}
	e.RegisterRows("urn:t", "EARLY", nil)
	e.Use(mw("inner"))
	e.Use(mw("outer")) // installed later = outermost
	e.RegisterRows("urn:t", "LATE", nil)

	for _, name := range []string{"EARLY", "LATE"} {
		order = nil
		if _, err := e.Call("urn:t", name, nil); err != nil {
			t.Fatal(err)
		}
		want := []string{"outer:" + name, "inner:" + name}
		if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
			t.Fatalf("%s middleware order = %v, want %v", name, order, want)
		}
	}
}

func TestCallContextReachesFunction(t *testing.T) {
	e := New()
	e.RegisterContext("urn:t", "CTX", func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.CallContext(ctx, "urn:t", "CTX", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := e.Call("urn:t", "CTX", nil); err != nil {
		t.Fatalf("background call: %v", err)
	}
}
