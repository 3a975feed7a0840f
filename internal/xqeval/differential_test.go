// Differential correctness net for the query planner: every query the
// translator generates for the EXPLAIN golden corpus and the translator
// fuzz seeds, in both result modes, must evaluate to an identical sequence
// planned and naive — twice on one plan, once building its closed builds
// and once reusing what the first evaluation kept. The planner is licensed to change error timing
// (XQuery §2.3.4) but never a successful query's value — this test is the
// proof over the whole generated-query corpus, against the demo dataset.
//
// It lives outside package xqeval because it needs internal/demo and
// internal/translator, both of which depend on xqeval.
package xqeval_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// differentialCorpus is the union of the driver's EXPLAIN golden SQL and
// the translator fuzz seeds (deduplicated).
func differentialCorpus() []string {
	raw := []string{
		// EXPLAIN golden corpus (internal/driver/explain_golden_test.go).
		"SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS",
		"SELECT * FROM CUSTOMERS",
		"SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID",
		"SELECT A.CUSTOMERNAME, B.PAYMENT FROM CUSTOMERS A LEFT OUTER JOIN PAYMENTS B ON A.CUSTOMERID = B.CUSTID",
		"SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) > 1",
		"SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS",
		"SELECT INFO.ID FROM (SELECT CUSTOMERID ID FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTID FROM PAYMENTS WHERE PAYMENT > 100)",
		"SELECT DISTINCT CITY FROM CUSTOMERS ORDER BY CITY DESC",
		"SELECT UPPER(CUSTOMERNAME), LENGTH(CITY) FROM CUSTOMERS WHERE CITY IS NOT NULL",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ? AND CITY = ?",
		// Translator fuzz seeds (internal/translator/fuzz_test.go).
		"SELECT DISTINCT CITY FROM CUSTOMERS ORDER BY CITY",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTID FROM PAYMENTS)",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?",
		"SELECT CAST(CUSTOMERID AS VARCHAR(10)) FROM CUSTOMERS ORDER BY 1",
		"SELECT COUNT(DISTINCT CITY), MIN(SIGNUPDATE) FROM CUSTOMERS",
		"SELECT EXTRACT(YEAR FROM PAYDATE), SUM(PAYMENT) FROM PAYMENTS GROUP BY EXTRACT(YEAR FROM PAYDATE)",
		"SELECT * FROM PO_CUSTOMERS WHERE STATUS = 'OPEN' AND TOTAL BETWEEN 10 AND 500",
		"SELECT CUSTOMERID FROM CUSTOMERS EXCEPT SELECT CUSTID FROM PAYMENTS",
		// Correlated lookups run as hash probes, and SQL-92's NOT IN
		// (aqlbench join_group_xml's outer join and NOT EXISTS drill).
		"SELECT C.CUSTOMERID, C.CUSTOMERNAME, O.ORDERID, O.TOTAL FROM CUSTOMERS C LEFT OUTER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID WHERE C.CUSTOMERID >= ?",
		"SELECT C.CUSTOMERID, C.CUSTOMERNAME FROM CUSTOMERS C WHERE NOT EXISTS (SELECT 1 FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID AND O.TOTAL > ?)",
		"SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE EXISTS (SELECT 1 FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID AND P.PAYMENT > 100)",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID NOT IN (SELECT CUSTID FROM PAYMENTS WHERE PAYMENT > 100)",
	}
	seen := map[string]bool{}
	var out []string
	for _, s := range raw {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// correlatedSeeds start the plan and parallel fuzzers from more correlated
// lookups over the demo tables — IN, ANY, a scalar subquery, two levels, an
// ON conjunct with WHERE on the padded side — on top of the corpus.
var correlatedSeeds = []string{
	"SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE CITY IN (SELECT O.STATUS FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID)",
	"SELECT CUSTOMERID FROM CUSTOMERS C WHERE 100 < ANY (SELECT P.PAYMENT FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID)",
	"SELECT CUSTOMERID, (SELECT MAX(TOTAL) FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID) FROM CUSTOMERS C",
	"SELECT CUSTOMERID FROM CUSTOMERS C WHERE EXISTS (SELECT 1 FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID AND NOT EXISTS (SELECT 1 FROM PO_ITEMS I WHERE I.ORDERID = O.ORDERID))",
	"SELECT C.CUSTOMERID, P.PAYMENT FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID AND P.PAYMENT > 50 WHERE P.PAYMENT IS NULL",
}

// bindParams builds plausible external variable bindings $p1…$pN for a
// translation — numeric parameters get an in-range customer id, the rest a
// demo city name — so parameterized corpus queries run non-trivially.
func bindParams(res *translator.Result) map[string]xdm.Sequence {
	if res.ParamCount == 0 {
		return nil
	}
	ext := make(map[string]xdm.Sequence, res.ParamCount)
	for i := 0; i < res.ParamCount; i++ {
		var v xdm.Atomic
		switch res.ParamTypes[i] {
		case catalog.SQLInteger, catalog.SQLSmallint, catalog.SQLDecimal, catalog.SQLDouble:
			v = xdm.Integer(1005)
		default:
			v = xdm.String("Springfield")
		}
		ext["p"+strconv.Itoa(i+1)] = xdm.SequenceOf(v)
	}
	return ext
}

// evalTwice evaluates plan twice, materialized: the first evaluation builds
// the plan's closed builds and keeps them, the second reuses them. It fails
// t unless both give the same items, or the same error, and charge the same
// steps and tuples; it returns the second's result.
func evalTwice(t testing.TB, e *xqeval.Engine, plan *xqeval.Plan, ext map[string]xdm.Sequence) (xdm.Sequence, error) {
	t.Helper()
	var runs [2]evaluation
	var out xdm.Sequence
	var err error
	for i := range runs {
		cur := e.EvalStream(context.Background(), plan, ext, nil)
		out, err = cur.Drain()
		steps, tuples := cur.Stats()
		runs[i] = evaluation{xdm.MarshalSequence(out), steps, tuples}
		if err != nil {
			runs[i].out = "error: " + err.Error()
		}
	}
	if runs[0] != runs[1] {
		t.Fatalf("%s\nbuild and reuse differ:\nbuild: %+v\nreuse: %+v", strings.Join(plan.Describe(), "\n"), runs[0], runs[1])
	}
	return out, err
}

func TestPlannedMatchesNaiveOnCorpus(t *testing.T) {
	app, _, engine := demo.Setup(demo.DefaultSizes)
	checked := 0
	for _, mode := range []translator.ResultMode{translator.ModeXML, translator.ModeText} {
		trans := translator.New(catalog.NewCache(app))
		trans.Options.Mode = mode
		for _, sql := range differentialCorpus() {
			res, err := trans.Translate(sql)
			if err != nil {
				t.Fatalf("mode %v: %q must translate: %v", mode, sql, err)
			}
			ext := bindParams(res)
			planned, perr := evalTwice(t, engine, xqeval.NewPlan(res.Query), ext)
			naive, nerr := engine.EvalNaive(context.Background(), res.Query, ext)
			if (perr == nil) != (nerr == nil) {
				t.Fatalf("mode %v: %q: error divergence\nplanned: %v\nnaive:   %v", mode, sql, perr, nerr)
			}
			if perr != nil {
				t.Fatalf("mode %v: %q must evaluate: %v", mode, sql, perr)
			}
			if got, want := xdm.MarshalSequence(planned), xdm.MarshalSequence(naive); got != want {
				t.Fatalf("mode %v: %q: result divergence\nplanned: %s\nnaive:   %s", mode, sql, got, want)
			}
			checked++
		}
	}
	if checked < 46 { // 23 distinct statements × 2 modes
		t.Fatalf("corpus shrank: only %d checks ran", checked)
	}
	if s := engine.Stats(); s.KeptReuses == 0 || s.KeptReuses != s.KeptBuilds {
		t.Fatalf("second evaluations reused %d kept values of %d kept", s.KeptReuses, s.KeptBuilds)
	}
}

// FuzzPlanDifferential extends translator fuzzing through the optimizer:
// any SQL the translator accepts is evaluated planned and naive over a
// small demo dataset, and any divergence (or planner panic) fails. It is
// seeded with the corpus, the correlated seeds and the benchmark's
// statement shapes, whose intermediate records are pruned.
func FuzzPlanDifferential(f *testing.F) {
	for _, s := range append(append(differentialCorpus(), correlatedSeeds...), pruningShapes...) {
		f.Add(s)
	}
	// Small dataset: the naive evaluator materializes full cross products,
	// and fuzz inputs can join a table with itself several times.
	app, _, engine := demo.Setup(demo.Sizes{Customers: 8, PaymentsPerCustomer: 2, Orders: 10, ItemsPerOrder: 2})
	trans := translator.New(catalog.NewCache(app))
	f.Fuzz(func(t *testing.T, sql string) {
		res, err := trans.Translate(sql)
		if err != nil {
			return
		}
		if strings.Contains(res.XQuery(), "fn:current-") {
			return // nondeterministic between the two evaluations
		}
		ext := bindParams(res)
		planned, perr := evalTwice(t, engine, xqeval.NewPlan(res.Query), ext)
		naive, nerr := engine.EvalNaive(context.Background(), res.Query, ext)
		if perr != nil || nerr != nil {
			// Error-presence divergence is permitted: conjunct splitting
			// drops the naive evaluator's `and` short-circuit, which
			// XQuery §3.6.1 never guaranteed, and §2.3.4 lets an optimizer
			// change when dynamic errors surface. Value divergence on a
			// doubly-successful query is the bug this fuzzer hunts.
			return
		}
		if got, want := xdm.MarshalSequence(planned), xdm.MarshalSequence(naive); got != want {
			t.Fatalf("%q: result divergence\nplanned: %s\nnaive:   %s", sql, got, want)
		}
	})
}
