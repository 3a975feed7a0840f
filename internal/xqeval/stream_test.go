package xqeval

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// recordsetBody builds the generated-query XML shape around rows:
// <RECORDSET>{ rows }</RECORDSET>.
func recordsetBody(rows xquery.Expr) *xquery.ElementCtor {
	return &xquery.ElementCtor{Name: "RECORDSET",
		Content: []xquery.ElemContent{&xquery.Enclosed{Expr: rows}}}
}

// streamingCrossQuery is a RECORDSET-wrapped cross join over b:T — a
// streamable query whose full evaluation is rows² tuples.
func streamingCrossQuery() *xquery.Query {
	inner := &xquery.FLWOR{
		Clauses: []xquery.Clause{
			&xquery.For{Var: "x", In: xquery.Call("b:T")},
			&xquery.For{Var: "y", In: xquery.Call("b:T")},
		},
		Return: &xquery.ElementCtor{Name: "RECORD", Content: []xquery.ElemContent{
			xquery.TextElem("N", xquery.ChildPath("x", "N")),
		}},
	}
	return &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "b", Namespace: "urn:big", Location: "big.xsd"},
		}},
		Body: recordsetBody(inner),
	}
}

func TestStreamPlanKinds(t *testing.T) {
	rows := &xquery.FLWOR{
		Clauses: []xquery.Clause{&xquery.For{Var: "x", In: xquery.Call("b:T")}},
		Return: &xquery.ElementCtor{Name: "RECORD", Content: []xquery.ElemContent{
			xquery.TextElem("N", xquery.ChildPath("x", "N")),
		}},
	}

	xml := planStream(recordsetBody(rows))
	if xml.Kind != StreamXMLRows || !xml.Streamable() {
		t.Fatalf("XML wrapper classified %v, want xml rows", xml.Kind)
	}

	// The §4 text wrapper: fn:string-join over a let/for FLWOR tokenizing
	// $actualQuery/RECORD — exactly what translator.wrapTextMode emits.
	wrapper := func(tokens xquery.Expr) *StreamPlan {
		return planStream(xquery.Call("fn:string-join",
			&xquery.FLWOR{
				Clauses: []xquery.Clause{
					&xquery.Let{Var: "actualQuery", Expr: recordsetBody(rows)},
					&xquery.For{Var: "tokenQuery", In: xquery.ChildPath("actualQuery", "RECORD")},
				},
				Return: tokens,
			},
			xquery.Str("")))
	}
	text := wrapper(&xquery.Seq{Items: []xquery.Expr{
		xquery.Str(">"),
		xquery.Call("fn-bea:if-empty", xquery.Call("fn-bea:xml-escape", xquery.Call("fn-bea:serialize-atomic",
			xquery.Call("fn:data", xquery.ChildPath("tokenQuery", "N")))), xquery.Str("&null;")),
	}})
	if text.Kind != StreamTextRows || !text.Streamable() {
		t.Fatalf("text wrapper classified %v, want text rows", text.Kind)
	}
	if len(text.prog.cols) != 1 || text.prog.cols[0].srcCol != "N" || text.prog.fp != nil {
		t.Fatalf("row program = %+v, want a record-source program reading N", text.prog)
	}

	// A body with no recognized row-stream decomposition materializes, and
	// so does a wrapper whose tokens are not the serialize/escape/if-empty
	// chain — one reading the whole recordset variable included.
	if sp := planStream(rows); sp.Streamable() {
		t.Fatalf("bare FLWOR classified %v, want materialized", sp.Kind)
	}
	if sp := wrapper(&xquery.Seq{Items: []xquery.Expr{xquery.Str(">"), xquery.ChildPath("tokenQuery", "N")}}); sp.Streamable() {
		t.Fatalf("tokens outside the chain classified %v, want materialized", sp.Kind)
	}
	if leaky := wrapper(xquery.Call("fn:count", xquery.VarRef("actualQuery"))); leaky.Streamable() {
		t.Fatal("return referencing the recordset variable must not stream")
	}

	for _, sp := range []*StreamPlan{xml, text, nil} {
		if sp.Describe() == "" {
			t.Fatal("Describe must always render")
		}
	}
}

// TestEvalStreamMatchesEval: the streamed items, concatenated, must equal
// the RECORD children of the materialized evaluation's RECORDSET.
func TestEvalStreamMatchesEval(t *testing.T) {
	e := bigEngine(20)
	q := streamingCrossQuery()

	out, err := evalQuery(e, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	it, err := out.Singleton()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, rec := range it.(*xdm.Element).ChildElements("RECORD") {
		want.WriteString(xdm.MarshalSequence(xdm.SequenceOf(rec)))
		want.WriteByte('\n')
	}

	cur := e.EvalStreamNaive(context.Background(), q, nil, nil)
	defer cur.Close()
	if !cur.RowAligned() {
		t.Fatal("RECORDSET query should stream row-aligned")
	}
	var got strings.Builder
	rows := 0
	for {
		chunk, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows++
		got.WriteString(xdm.MarshalSequence(chunk))
		got.WriteByte('\n')
	}
	if got.String() != want.String() {
		t.Fatalf("streamed items diverged from materialized evaluation\ngot:  %s\nwant: %s",
			got.String(), want.String())
	}
	if rows != 400 {
		t.Fatalf("streamed %d rows, want 400", rows)
	}
}

// bothStreams runs check on q streamed naive and planned, the way
// production plans it (CompileAST).
func bothStreams(t *testing.T, e *Engine, q *xquery.Query, check func(t *testing.T, open func(context.Context) *Cursor)) {
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("naive", func(t *testing.T) {
		check(t, func(ctx context.Context) *Cursor { return e.EvalStreamNaive(ctx, q, nil, nil) })
	})
	t.Run("planned", func(t *testing.T) {
		check(t, func(ctx context.Context) *Cursor { return e.EvalStream(ctx, plan, nil, nil) })
	})
}

// TestCursorCloseCancelsEvaluation: closing a cursor with rows left must
// end the evaluation — the tuple counter stays far below the query's full
// cardinality.
func TestCursorCloseCancelsEvaluation(t *testing.T) {
	bothStreams(t, bigEngine(300), streamingCrossQuery(), func(t *testing.T, open func(context.Context) *Cursor) {
		cur := open(context.Background()) // 90 000 tuples if run to completion
		for i := 0; i < 5; i++ {
			if _, err := cur.Next(); err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("deliberate close surfaced an error: %v", err)
		}
		_, tuples := cur.Stats()
		// 5 consumed, give or take a batch; anywhere near 90 000 means the
		// evaluation ran to completion after Close.
		if tuples > 2000 {
			t.Fatalf("closed cursor evaluated %d tuples, want far fewer than 90000", tuples)
		}
		if _, err := cur.Next(); err != io.EOF {
			t.Fatalf("Next after Close = %v, want io.EOF", err)
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("second Close = %v, want nil (idempotent)", err)
		}
	})
}

// TestCursorContextCancellation: cancelling the evaluation context
// mid-stream surfaces context.Canceled from Next and Err.
func TestCursorContextCancellation(t *testing.T) {
	bothStreams(t, bigEngine(300), streamingCrossQuery(), func(t *testing.T, open func(context.Context) *Cursor) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cur := open(ctx)
		defer cur.Close()
		if _, err := cur.Next(); err != nil {
			t.Fatalf("first row: %v", err)
		}
		cancel()
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, err := cur.Next()
			if err == nil {
				if time.Now().After(deadline) {
					t.Fatal("cancellation never surfaced")
				}
				continue // rows evaluated before the cancellation may still come
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			break
		}
		if err := cur.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err() = %v, want context.Canceled", err)
		}
	})
}

// TestCursorPrimeSurfacesEarlyErrors: failures before the first row (an
// unbound data source) must surface synchronously from Prime.
func TestCursorPrimeSurfacesEarlyErrors(t *testing.T) {
	e := New() // no b:T registered
	cur := e.EvalStreamNaive(context.Background(), streamingCrossQuery(), nil, nil)
	defer cur.Close()
	if err := cur.Prime(); err == nil {
		t.Fatal("Prime over an unbound source must fail")
	}
}

// TestCursorConcurrentNextClose hammers Next from several goroutines while
// another closes the cursor — the consumer surface is mutex-protected, so
// this pins the locking under -race.
func TestCursorConcurrentNextClose(t *testing.T) {
	bothStreams(t, bigEngine(60), streamingCrossQuery(), func(t *testing.T, open func(context.Context) *Cursor) {
		for round := 0; round < 4; round++ { // 3600 rows each
			cur := open(context.Background())
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if _, err := cur.Next(); err != nil {
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(round) * 100 * time.Microsecond)
				cur.Close()
			}()
			wg.Wait()
			if err := cur.Err(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	})
}

// TestStreamLimitShortCircuit: fn:subsequence(rows, 1, n) — FETCH FIRST —
// stops the evaluation after n tuples, both streamed and materialized.
func TestStreamLimitShortCircuit(t *testing.T) {
	inner := &xquery.FLWOR{
		Clauses: []xquery.Clause{
			&xquery.For{Var: "x", In: xquery.Call("b:T")},
			&xquery.For{Var: "y", In: xquery.Call("b:T")},
		},
		Return: &xquery.ElementCtor{Name: "RECORD", Content: []xquery.ElemContent{
			xquery.TextElem("N", xquery.ChildPath("x", "N")),
		}},
	}
	q := &xquery.Query{
		Prolog: xquery.Prolog{SchemaImports: []xquery.SchemaImport{
			{Prefix: "b", Namespace: "urn:big", Location: "big.xsd"},
		}},
		Body: recordsetBody(xquery.Call("fn:subsequence", inner,
			&xquery.NumberLit{Text: "1"}, &xquery.NumberLit{Text: "10"})),
	}
	e := bigEngine(300) // 90 000 tuples without the short circuit
	bothStreams(t, e, q, func(t *testing.T, open func(context.Context) *Cursor) {
		cur := open(context.Background())
		n := 0
		for {
			_, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		cur.Close()
		if n != 10 {
			t.Fatalf("streamed %d rows, want 10", n)
		}
		if _, tuples := cur.Stats(); tuples > 12 {
			t.Fatalf("streamed FETCH FIRST evaluated %d tuples, want O(10)", tuples)
		}
	})

	// Materialized path: evalFuncCall takes the same short circuit.
	out, err := evalQuery(e, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	it, err := out.Singleton()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(it.(*xdm.Element).ChildElements("RECORD")); got != 10 {
		t.Fatalf("materialized %d rows, want 10", got)
	}
}
