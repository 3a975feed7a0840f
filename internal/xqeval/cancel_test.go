package xqeval

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// bigEngine registers a table large enough that its self-cross-join takes
// meaningfully long.
func bigEngine(rows int) *Engine {
	e := New()
	data := make([]*xdm.Element, rows)
	for i := range data {
		r := xdm.NewElement("T")
		r.AddChild(xdm.NewTextElement("N", xdm.Integer(i).Lexical()))
		data[i] = r
	}
	e.RegisterRows("urn:big", "T", data)
	return e
}

func crossJoinQuery() *xquery.Query {
	return &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "b", Namespace: "urn:big", Location: "big.xsd"},
		}},
		Body: &xquery.FLWOR{
			Clauses: []xquery.Clause{
				&xquery.For{Var: "x", In: xquery.Call("b:T")},
				&xquery.For{Var: "y", In: xquery.Call("b:T")},
				&xquery.For{Var: "z", In: xquery.Call("b:T")},
			},
			Return: xquery.Num("1"),
		},
	}
}

func TestEvalCancellation(t *testing.T) {
	e := bigEngine(300) // 300³ tuples — far too many to finish quickly
	ctx, cancel := context.WithCancel(context.Background())
	plan := MustCompile(t, e, crossJoinQuery(), nil)
	done := make(chan error, 1)
	go func() {
		_, err := e.EvalStream(ctx, plan, nil, nil).Drain()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evaluation did not observe cancellation")
	}
}

func TestEvalDeadline(t *testing.T) {
	e := bigEngine(300)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.EvalStream(ctx, MustCompile(t, e, crossJoinQuery(), nil), nil, nil).Drain()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("deadline observed too late: %v", time.Since(start))
	}
}

func TestEvalContextCompletesNormally(t *testing.T) {
	e := bigEngine(5)
	out, err := e.EvalStream(context.Background(), MustCompile(t, e, crossJoinQuery(), nil), nil, nil).Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 125 {
		t.Fatalf("rows = %d", len(out))
	}
}

// TestEvalStringFrontDoor: XQuery text goes through xquery.Parse, then
// CompileAST (static check + plan), then evaluation.
func TestEvalStringFrontDoor(t *testing.T) {
	e := bigEngine(3)
	q, err := xquery.Parse(`
		import schema namespace b = "urn:big" at "big.xsd";
		fn:count(for $x in b:T() where ($x/N >= 1) return $x)`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.EvalStream(context.Background(), plan, nil, nil).Drain()
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(xdm.Integer) != 2 {
		t.Fatalf("count = %v", out[0])
	}
	if _, err := xquery.Parse("for $x"); err != nil {
		var pe *xquery.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("err type = %T", err)
		}
	} else {
		t.Fatal("bad XQuery should fail to compile")
	}
}
