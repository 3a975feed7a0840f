package xqeval_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/demo"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// The §3.5 RECORDs the record kernel builds are flat xdm.Records; every
// reader downstream — the child step, the column kernels, fn:data, the set
// operations and the XML decoders — reads them by slot. This net runs
// XML-mode statements whose RECORDs are kernel-built against the naive
// evaluator, which builds elements.

// flatRecordStatements are an outer join, GROUP BY with HAVING, and
// DISTINCT, EXCEPT and INTERSECT over joins.
var flatRecordStatements = []string{
	"SELECT C.CUSTOMERID, C.CUSTOMERNAME, O.ORDERID, O.TOTAL FROM CUSTOMERS C LEFT OUTER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID WHERE C.CUSTOMERID >= 1003",
	"SELECT C.CITY, COUNT(*) CNT, SUM(O.TOTAL) REVENUE, MAX(O.TOTAL) TOP FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID WHERE O.STATUS IN ('OPEN', 'SHIPPED') GROUP BY C.CITY HAVING COUNT(*) > 1 ORDER BY CNT DESC, C.CITY",
	"SELECT DISTINCT C.CITY, O.STATUS FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID",
	"SELECT C.CUSTOMERID FROM CUSTOMERS C INNER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID EXCEPT SELECT O.CUSTOMERID FROM PO_CUSTOMERS O INNER JOIN PO_ITEMS I ON O.ORDERID = I.ORDERID",
	"SELECT C.CUSTOMERID, C.CITY FROM CUSTOMERS C INNER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID INTERSECT SELECT C.CUSTOMERID, C.CITY FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID",
}

// TestFlatRecordsMatchNaive evaluates each statement at 1 and 2 workers
// whole (a drained EvalStream), streamed (EvalStream) and decoded
// (resultset.FromXML and StreamXML): each is byte-identical and deep-equal
// to naive, and each decodes to naive's rows.
func TestFlatRecordsMatchNaive(t *testing.T) {
	app, _, engine := demo.Setup(demo.Sizes{Customers: 12, PaymentsPerCustomer: 2, Orders: 20, ItemsPerOrder: 2})
	defer xqeval.ForceFanOutForTest(engine, 0, 0, 0)
	ctx := context.Background()
	for _, sql := range flatRecordStatements {
		res := translateFor(t, app, translator.ModeXML, sql)
		cols := make([]resultset.Column, len(res.Columns))
		for i, c := range res.Columns {
			cols[i] = resultset.Column{Label: c.Label, ElementName: c.ElementName, Type: c.Type, Nullable: c.Nullable}
		}
		naive, err := engine.EvalNaive(ctx, res.Query, nil)
		if err != nil {
			t.Fatalf("%q: naive: %v", sql, err)
		}
		want, wantRows := xdm.MarshalSequence(naive), decodeXML(t, naive, cols)
		wantStream := drain(engine.EvalStreamNaive(ctx, res.Query, nil, nil)).out
		plan := xqeval.NewPlan(res.Query)
		if !strings.Contains(strings.Join(plan.Describe(), "\n"), "return <RECORD> [column") {
			t.Fatalf("%q: no record kernel planned:\n%s", sql, strings.Join(plan.Describe(), "\n"))
		}
		// Every evaluation runs on a copy with nothing kept, so it builds.
		for _, workers := range []int{1, 2} {
			xqeval.ForceFanOutForTest(engine, workers, 2, 2)
			planned, err := engine.EvalStream(ctx, xqeval.FreshKept(plan), nil, nil).Drain()
			if err != nil {
				t.Fatalf("%q, %d workers: %v", sql, workers, err)
			}
			if got := xdm.MarshalSequence(planned); got != want {
				t.Fatalf("%q, %d workers: planned\n%s\nnaive\n%s", sql, workers, got, want)
			}
			if !xdm.DeepEqual(planned, naive) || !xdm.DeepEqual(naive, planned) {
				t.Fatalf("%q, %d workers: planned and naive are not deep-equal", sql, workers)
			}
			if got := decodeXML(t, planned, cols); got != wantRows {
				t.Fatalf("%q, %d workers: FromXML decoded\n%s\nwant\n%s", sql, workers, got, wantRows)
			}
			if got := drain(engine.EvalStream(ctx, xqeval.FreshKept(plan), nil, nil)).out; got != wantStream {
				t.Fatalf("%q, %d workers: streamed\n%s\nnaive\n%s", sql, workers, got, wantStream)
			}
			if got := streamXML(t, engine.EvalStream(ctx, xqeval.FreshKept(plan), nil, nil), cols); got != wantRows {
				t.Fatalf("%q, %d workers: StreamXML decoded\n%s\nwant\n%s", sql, workers, got, wantRows)
			}
		}
	}
}

func decodeXML(t *testing.T, s xdm.Sequence, cols []resultset.Column) string {
	t.Helper()
	rows, err := resultset.FromXML(s, cols)
	if err != nil {
		t.Fatal(err)
	}
	return renderRows(t, rows)
}

func streamXML(t *testing.T, cur *xqeval.Cursor, cols []resultset.Column) string {
	t.Helper()
	rows := resultset.NewStreaming(resultset.StreamXML(cur, cols))
	defer rows.Close()
	return renderRows(t, rows)
}

// renderRows renders each decoded value with its Go type, NULL as NULL.
func renderRows(t *testing.T, rows *resultset.Rows) string {
	t.Helper()
	var b strings.Builder
	for rows.Next() {
		for i := range rows.Columns() {
			v, err := rows.Value(i)
			if err != nil {
				t.Fatal(err)
			}
			if v == nil {
				b.WriteString("NULL|")
			} else {
				fmt.Fprintf(&b, "%T:%s|", v, v.Lexical())
			}
		}
		b.WriteByte('\n')
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestGroupedJoinAllocs guards the grouped join on demo data, whose group
// key fn:data($v/C.CITY) and aggregates fn:data($p/O.TOTAL) read columns of
// kernel-built records: no column element is built for them, so one
// serial evaluation allocates at most 0.75x the bytes it took when records
// were element trees (64-bit Go 1.24; the race detector's figure differs).
func TestGroupedJoinAllocs(t *testing.T) {
	treeBytes := 191683 // measured with element-tree records
	if raceEnabled {
		treeBytes = 200298
	}
	app, _, engine := demo.Setup(demo.DefaultSizes)
	xqeval.ForceFanOutForTest(engine, 1, 0, 0)
	defer xqeval.ForceFanOutForTest(engine, 0, 0, 0)
	res := translateFor(t, app, translator.ModeXML, "SELECT C.CITY, COUNT(*) CNT, SUM(O.TOTAL) REVENUE, MAX(O.TOTAL) TOP FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID GROUP BY C.CITY HAVING COUNT(*) > 1 ORDER BY C.CITY")
	plan := xqeval.NewPlan(res.Query)
	ctx := context.Background()
	// Each evaluation runs on a copy with nothing kept, so it builds the
	// join and the records (the copy adds a few hundred bytes).
	eval := func() {
		if _, err := engine.EvalStream(ctx, xqeval.FreshKept(plan), nil, nil).Drain(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, eval)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 50
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("grouped join: %.0f allocations, %.0f bytes per evaluation", allocs, bytes)
	if bytes > 0.75*float64(treeBytes) {
		t.Fatalf("grouped join: %.0f bytes per evaluation, want <= %.0f (0.75 x %d)", bytes, 0.75*float64(treeBytes), treeBytes)
	}
}
