package xqeval_test

import (
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
	"repro/internal/xquery"
)

// The consumer analysis (xquery.RecordReads) and the record kernels that
// build only the columns it proves are read: which columns each kernel
// keeps, and that a pruned plan answers exactly as naive and charges
// exactly the steps and tuples of the same plan building every column.

// Statement shapes of aqlbench's join_group_xml (the report; its outer
// join and NOT EXISTS drill are in differentialCorpus) and served_point.
var pruningShapes = []string{
	"SELECT C.CITY, COUNT(*) CNT, SUM(O.TOTAL) REVENUE, MAX(O.TOTAL) TOP FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID WHERE O.STATUS IN ('OPEN', 'SHIPPED') GROUP BY C.CITY HAVING COUNT(*) > ? ORDER BY CNT DESC, C.CITY",
	"SELECT CUSTOMERID, CUSTOMERNAME, CITY, SIGNUPDATE FROM CUSTOMERS WHERE CUSTOMERID = ?",
	"SELECT O.ORDERID, O.STATUS, I.PRODUCT, I.QUANTITY, I.PRICE FROM PO_CUSTOMERS O INNER JOIN PO_ITEMS I ON O.ORDERID = I.ORDERID WHERE O.CUSTOMERID = ?",
}

// pruneRecord is a three-column record of $a's columns N, K and L, and
// pruneRecords the FLWOR producing one per j:R() row.
const (
	pruneRecord  = `<RECORD><A.N>{fn:data($a/N)}</A.N>{ if (fn:empty(fn:data($a/K))) then () else <A.K>{fn:data($a/K)}</A.K> }{ if (fn:empty(fn:data($a/L))) then () else <A.L>{fn:data($a/L)}</A.L> }</RECORD>`
	pruneRecords = `for $a in j:R() return ` + pruneRecord
)

func pruneQuery(t *testing.T, body string) *xquery.Query {
	t.Helper()
	q, err := xquery.Parse(`import schema namespace j = "urn:j" at "j.xsd";` + "\n" + body)
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	return q
}

func translateFor(t *testing.T, app *catalog.Application, mode translator.ResultMode, sql string) *translator.Result {
	t.Helper()
	trans := translator.New(catalog.NewCache(app))
	trans.Options.Mode = mode
	res, err := trans.Translate(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return res
}

func TestRecordKernelPruningAnalysis(t *testing.T) {
	app, _, engine := demo.Setup(demo.Sizes{Customers: 8, PaymentsPerCustomer: 2, Orders: 10, ItemsPerOrder: 2})
	// Translated statements: each kernel's kept columns, in body order.
	for _, c := range []struct {
		name string
		mode translator.ResultMode
		sql  string
		want []string
	}{
		{"inner join feeding GROUP BY", translator.ModeXML, pruningShapes[0],
			[]string{"C.CITY O.TOTAL"}},
		{"outer join, padded and matched", translator.ModeText,
			"SELECT A.CUSTOMERNAME, B.PAYMENT FROM CUSTOMERS A LEFT OUTER JOIN PAYMENTS B ON A.CUSTOMERID = B.CUSTID",
			[]string{"A.CUSTOMERNAME", "A.CUSTOMERNAME B.PAYMENT", "A.CUSTOMERNAME B.PAYMENT"}},
		{"outer join with a WHERE", translator.ModeXML,
			"SELECT C.CUSTOMERID, C.CUSTOMERNAME, O.ORDERID, O.TOTAL FROM CUSTOMERS C LEFT OUTER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID WHERE C.CUSTOMERID >= ?",
			[]string{"C.CUSTOMERID C.CUSTOMERNAME", "C.CUSTOMERID C.CUSTOMERNAME O.ORDERID O.TOTAL", "C.CUSTOMERID C.CUSTOMERNAME O.ORDERID O.TOTAL"}},
		{"GROUP BY over its partition", translator.ModeText,
			"SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) > 1",
			[]string{"CITY"}},
		{"subquery in FROM", translator.ModeXML,
			"SELECT INFO.ID FROM (SELECT CUSTOMERID ID, CITY C FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10",
			[]string{"ID", "INFO.ID"}},
		{"IN subquery", translator.ModeXML,
			"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTID FROM PAYMENTS WHERE PAYMENT > 100)",
			[]string{"CUSTID", "CUSTOMERNAME"}},
		{"for over a FLWOR, under a distinct-rows", translator.ModeXML,
			"SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS",
			[]string{"CUSTOMERID", "CUSTID", "CUSTOMERID"}},
	} {
		res := translateFor(t, app, c.mode, c.sql)
		if got := xqeval.KeptColumns(xqeval.MustCompile(t, engine, res.Query, bindParams(res))); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: kept %q, want %q", c.name, got, c.want)
		}
	}

	je := xqeval.New()
	je.RegisterRows("urn:j", "R", nil)
	je.RegisterRows("urn:j", "S", nil)
	all := "A.N A.K A.L"
	set := `let $t := <RECORDSET>{ ` + pruneRecords + ` }</RECORDSET> `
	for _, c := range []struct {
		name, body, want string
	}{
		// Consumers that read the records by name.
		{"for over a FLWOR", `for $v in (` + pruneRecords + `) return fn:data($v/A.K)`, "A.K"},
		{"path over a FLWOR", `fn:data((` + pruneRecords + `)/A.L)`, "A.L"},
		{"either branch of an if", `for $v in (if (fn:true()) then ` + pruneRecords + ` else ()) return fn:data($v/A.N)`, "A.N"},
		{"two fors over one RECORDSET", set + `for $x in $t/RECORD for $y in $t/RECORD where $x/A.N = $y/A.N return fn:data($y/A.L)`, "A.N A.L"},
		{"a group's key and partition", set + `for $v in $t/RECORD group $v as $p by fn:data($v/A.N) as $k return fn:sum(fn:data($p/A.K))`, "A.N A.K"},
		{"count, exists and empty", `for $v in (` + pruneRecords + `) where fn:exists($v) and fn:not(fn:empty($v)) return fn:count($v)`, ""},
		{"a path below a column", `for $v in (` + pruneRecords + `) return fn:count($v/A.K/X[. = 1])`, "A.K"},

		// Uses that may read any column.
		{"the record returned", `for $v in (` + pruneRecords + `) where $v/A.N > 1 return $v`, all},
		{"the record copied into a constructor", `for $v in (` + pruneRecords + `) where $v/A.N > 1 return <OUT>{$v}</OUT>`, all},
		{"a wildcard step", `for $v in (` + pruneRecords + `) where $v/A.N > 1 return fn:count($v/*)`, all},
		{"fn:data of the record", `for $v in (` + pruneRecords + `) where $v/A.N > 1 return fn:data($v)`, all},
		{"fn-bea:distinct-rows of the record", `for $v in (` + pruneRecords + `) where $v/A.N > 1 return fn-bea:distinct-rows($v)`, all},
		{"fn-bea:distinct-rows of the producer", `for $v in fn-bea:distinct-rows(` + pruneRecords + `) return fn:data($v/A.N)`, all},
		{"another function's argument", `for $v in (` + pruneRecords + `) where $v/A.N > 1 return fn:string($v)`, all},
		{"a predicate on the step", `for $v in (` + pruneRecords + `) return fn:data($v/A.N[. > 1])`, all},
		{"a filter on the record", `for $v in (` + pruneRecords + `) return fn:data($v[A.N > 1]/A.K)`, all},
		{"a shadowed variable", `for $v in (` + pruneRecords + `) return (fn:data($v/A.N), for $v in j:S() return $v)`, all},
		{"a predicate on $t/RECORD", set + `for $v in $t/RECORD[A.N > 1] return fn:data($v/A.K)`, all},
		{"$t read outside a for", set + `for $v in $t/RECORD return (fn:data($v/A.N), fn:count($t/RECORD))`, all},
		{"the partition returned", set + `for $v in $t/RECORD group $v as $p by fn:data($v/A.N) as $k return $p`, all},
		{"a let over the records", set + `let $p := $t/RECORD return fn:sum(fn:data($p/A.K))`, all},
	} {
		q := pruneQuery(t, c.body)
		got := xqeval.KeptColumns(xqeval.MustCompile(t, je, q, nil))
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("%s: kept %q, want [%q]\n%s", c.name, got, c.want, c.body)
		}
	}
}

// TestRecordKernelPruningPlans runs the golden corpus, the correlated
// seeds and the benchmark statement shapes in both result modes at 1, 2
// and 8 workers, streamed and materialized: each result is byte-identical
// to naive, and each run charges the steps and tuples of the same plan
// with every column built. The sweep must fan out.
func TestRecordKernelPruningPlans(t *testing.T) {
	app, _, engine := demo.Setup(demo.Sizes{Customers: 12, PaymentsPerCustomer: 2, Orders: 20, ItemsPerOrder: 2})
	defer xqeval.ForceFanOutForTest(engine, 0, 0, 0)
	ctx := context.Background()
	pruned := 0
	fanned := false
	for _, mode := range []translator.ResultMode{translator.ModeXML, translator.ModeText} {
		for _, sql := range append(append(differentialCorpus(), correlatedSeeds...), pruningShapes...) {
			res := translateFor(t, app, mode, sql)
			if strings.Contains(res.XQuery(), "fn:current-") {
				continue
			}
			ext := bindParams(res)
			plan := xqeval.MustCompile(t, engine, res.Query, ext)
			whole := xqeval.KeepAllColumns(plan)
			if !reflect.DeepEqual(xqeval.KeptColumns(plan), xqeval.KeptColumns(whole)) {
				pruned++
			}
			// A statement naive fails on (the ANY seed's cast) is checked
			// against the plan building every column only: the planner may
			// move an error.
			var want map[string]string
			if naive, err := engine.EvalNaive(ctx, res.Query, ext); err == nil {
				want = map[string]string{
					"materialized": xdm.MarshalSequence(naive),
					"streamed":     drain(engine.EvalStreamNaive(ctx, res.Query, ext, nil)).out,
				}
			}
			// Each worker count evaluates copies with nothing kept, so it
			// builds; then, at 8 workers again, plan and whole themselves
			// keep their closed builds and reuse them.
			for _, workers := range []int{1, 2, 8, 0} {
				fresh := workers > 0
				if !fresh {
					workers = 8
				}
				xqeval.ForceFanOutForTest(engine, workers, 2, 2)
				morsels := engine.Stats().MorselsProcessed
				for how, run := range map[string]func(*xqeval.Plan) evaluation{
					"materialized": func(p *xqeval.Plan) evaluation { return materialize(ctx, engine, p, ext) },
					"streamed":     func(p *xqeval.Plan) evaluation { return drain(engine.EvalStream(ctx, p, ext, nil)) },
				} {
					p, w := plan, whole
					if fresh {
						p, w = xqeval.FreshKept(plan), xqeval.FreshKept(whole)
					}
					got, all := run(p), run(w)
					if got.out != all.out || want != nil && got.out != want[how] {
						t.Fatalf("mode %v, %d workers, %s: %q:\npruned %s\nevery column %s\nnaive %s",
							mode, workers, how, sql, got.out, all.out, want[how])
					}
					if got.steps != all.steps || got.tuples != all.tuples {
						t.Fatalf("mode %v, %d workers, %s: %q: pruned plan charged %d steps and %d tuples, every column %d and %d",
							mode, workers, how, sql, got.steps, got.tuples, all.steps, all.tuples)
					}
				}
				fanned = fanned || workers > 1 && engine.Stats().MorselsProcessed > morsels
			}
		}
	}
	if pruned < 6 {
		t.Fatalf("only %d plans pruned a record kernel", pruned)
	}
	if !fanned {
		t.Fatal("no statement fanned out to morsel workers")
	}
}

// evaluation is one run's result and its step and tuple charge.
type evaluation struct {
	out           string
	steps, tuples int64
}

// materialize evaluates p whole, as a drained cursor; its charge is
// Cursor.Stats.
func materialize(ctx context.Context, e *xqeval.Engine, p *xqeval.Plan, ext map[string]xdm.Sequence) evaluation {
	cur := e.EvalStream(ctx, p, ext, nil)
	out, err := cur.Drain()
	if err != nil {
		return evaluation{out: "error: " + err.Error()}
	}
	steps, tuples := cur.Stats()
	return evaluation{xdm.MarshalSequence(out), steps, tuples}
}

// drain pulls a cursor dry, chunk by chunk, each rendered as the
// concatenation of its items; its charge is Cursor.Stats.
func drain(cur *xqeval.Cursor) evaluation {
	defer cur.Close()
	var chunks []string
	for {
		chunk, err := cur.Next()
		if err != nil {
			if err != io.EOF {
				chunks = append(chunks, "error: "+err.Error())
			}
			steps, tuples := cur.Stats()
			return evaluation{strings.Join(chunks, " | "), steps, tuples}
		}
		// A text row is one string, an XML row its markup.
		var b strings.Builder
		for _, it := range chunk {
			if a, ok := it.(xdm.Atomic); ok {
				b.WriteString(a.Lexical())
			} else {
				b.WriteString(xdm.MarshalSequence(xdm.SequenceOf(it)))
			}
		}
		chunks = append(chunks, b.String())
	}
}

// TestRecordReadsPlanAllocs keeps the consumer analysis off the compile
// path's allocation budget: compiling a statement whose records no consumer
// reads — static check and plan, which share the prolog's prefix map —
// allocates no more than planning alone did before the analysis existed
// (21 on 64-bit Go 1.24), and the outer-join golden, with three kernels
// analysed, at most 4 more than its 100.
func TestRecordReadsPlanAllocs(t *testing.T) {
	app, _, engine := demo.Setup(demo.Sizes{Customers: 8, PaymentsPerCustomer: 2, Orders: 10, ItemsPerOrder: 2})
	for _, c := range []struct {
		mode translator.ResultMode
		sql  string
		max  float64
	}{
		{translator.ModeXML, "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS", 21},
		{translator.ModeText, "SELECT A.CUSTOMERNAME, B.PAYMENT FROM CUSTOMERS A LEFT OUTER JOIN PAYMENTS B ON A.CUSTOMERID = B.CUSTID", 100 + 4},
	} {
		q := translateFor(t, app, c.mode, c.sql).Query
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := engine.CompileAST(q, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("mode %v %q: %.0f allocations per compile", c.mode, c.sql, allocs)
		if allocs > c.max {
			t.Errorf("mode %v %q: compiling costs %.0f allocations, want <= %.0f", c.mode, c.sql, allocs, c.max)
		}
	}
}
