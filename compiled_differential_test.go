// Differential oracle for the compiled-query boundary: every statement in
// the EXPLAIN golden corpus and the translator fuzz seeds, in both result
// modes, must produce byte-identical sequences through the compiled path
// (translate → check+plan the AST, no serialization) and the legacy
// textual path (translate → serialize → re-parse → check+plan). The
// textual path is the sql2xq/xqrun process boundary the paper's
// architecture forces; keeping it as the oracle is what licenses the
// in-process pipeline to skip it.
package aqualogic

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// compiledCorpus mirrors the planner differential corpus
// (internal/xqeval/differential_test.go): the EXPLAIN golden SQL plus the
// translator fuzz seeds, deduplicated.
func compiledCorpus() []string {
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

// compiledBindings builds external variable bindings $p1…$pN plus the
// parallel name list the textual path's static check needs. Numeric
// parameters get an in-range customer id, the rest a demo city name.
func compiledBindings(res *translator.Result) (map[string]xdm.Sequence, []string) {
	if res.ParamCount == 0 {
		return nil, nil
	}
	ext := make(map[string]xdm.Sequence, res.ParamCount)
	names := make([]string, 0, res.ParamCount)
	for i := 0; i < res.ParamCount; i++ {
		var v xdm.Atomic
		switch res.ParamTypes[i] {
		case catalog.SQLInteger, catalog.SQLSmallint, catalog.SQLDecimal, catalog.SQLDouble:
			v = xdm.Integer(1005)
		default:
			v = xdm.String("Springfield")
		}
		name := "p" + strconv.Itoa(i+1)
		ext[name] = xdm.SequenceOf(v)
		names = append(names, name)
	}
	return ext, names
}

// evalTextual runs the legacy boundary on a compiled artifact: serialize
// the translated AST, re-parse the text, then check, plan, and evaluate
// the re-parsed query. A serialization that fails to re-parse is a hard
// failure — the textual path must stay a working oracle.
func evalTextual(t *testing.T, engine *Engine, cq *CompiledQuery, ext map[string]xdm.Sequence, names []string) (xdm.Sequence, error) {
	t.Helper()
	text := cq.XQuery()
	parsed, err := xquery.Parse(text)
	if err != nil {
		t.Fatalf("%q: serialized XQuery failed to re-parse: %v\n%s", cq.SQL, err, text)
	}
	plan, err := engine.CompileAST(parsed, names)
	if err != nil {
		t.Fatalf("%q: re-parsed XQuery failed static check: %v\n%s", cq.SQL, err, text)
	}
	return engine.EvalStream(context.Background(), plan, ext, nil).Drain()
}

// TestCompiledMatchesTextual is the compiled-query differential: both
// paths must agree byte-for-byte over the whole corpus in both result
// modes, and a second sweep must be served entirely from the compile
// cache without changing the answers.
func TestCompiledMatchesTextual(t *testing.T) {
	p := Demo()
	corpus := compiledCorpus()
	checked := 0

	run := func(pass string, wantHit bool) {
		for _, mode := range []ResultMode{ModeXML, ModeText} {
			for _, sql := range corpus {
				before := p.CompileStats()
				cq, err := p.CompileContext(context.Background(), sql, mode)
				if err != nil {
					t.Fatalf("%s: mode %v: %q must compile: %v", pass, mode, sql, err)
				}
				after := p.CompileStats()
				if wantHit && after.Hits != before.Hits+1 {
					t.Fatalf("%s: mode %v: %q: expected a cache hit, stats %+v -> %+v", pass, mode, sql, before, after)
				}
				ext, names := compiledBindings(cq.Res)
				compiled, cerr := p.Engine.EvalStream(context.Background(), cq.Plan, ext, nil).Drain()
				textual, terr := evalTextual(t, p.Engine, cq, ext, names)
				if (cerr == nil) != (terr == nil) {
					t.Fatalf("%s: mode %v: %q: error divergence\ncompiled: %v\ntextual:  %v", pass, mode, sql, cerr, terr)
				}
				if cerr != nil {
					t.Fatalf("%s: mode %v: %q must evaluate: %v", pass, mode, sql, cerr)
				}
				if got, want := xdm.MarshalSequence(compiled), xdm.MarshalSequence(textual); got != want {
					t.Fatalf("%s: mode %v: %q: result divergence\ncompiled: %s\ntextual:  %s", pass, mode, sql, got, want)
				}
				checked++
			}
		}
	}

	run("cold", false)
	run("cached", true)

	if checked < 76 { // 19 distinct statements × 2 modes × 2 passes
		t.Fatalf("corpus shrank: only %d checks ran", checked)
	}
	if s := p.CompileStats(); s.Misses != int64(len(corpus)*2) {
		t.Fatalf("expected one miss per (statement, mode), got stats %+v", s)
	}
}

// FuzzCompiledDifferential extends translator fuzzing across the
// serialize→reparse boundary: any SQL the translator accepts is compiled
// once as an AST and once through its own serialized text, and any
// re-parse failure or value divergence fails.
func FuzzCompiledDifferential(f *testing.F) {
	for _, s := range compiledCorpus() {
		f.Add(s)
	}
	// Small dataset: fuzz inputs can join a table with itself several
	// times, and each input is evaluated twice.
	app, _, engine := demo.Setup(demo.Sizes{Customers: 8, PaymentsPerCustomer: 2, Orders: 10, ItemsPerOrder: 2})
	p := New(app, engine)
	f.Fuzz(func(t *testing.T, sql string) {
		cq, err := p.CompileContext(context.Background(), sql, ModeXML)
		if err != nil {
			return
		}
		if strings.Contains(cq.XQuery(), "fn:current-") {
			return // nondeterministic between the two evaluations
		}
		ext, names := compiledBindings(cq.Res)
		compiled, cerr := p.Engine.EvalStream(context.Background(), cq.Plan, ext, nil).Drain()
		textual, terr := evalTextual(t, p.Engine, cq, ext, names)
		if cerr != nil || terr != nil {
			// Both paths run the same planner, but dynamic error timing is
			// not part of the contract (XQuery §2.3.4); value divergence on
			// a doubly-successful query is what this fuzzer hunts.
			return
		}
		if got, want := xdm.MarshalSequence(compiled), xdm.MarshalSequence(textual); got != want {
			t.Fatalf("%q: result divergence\ncompiled: %s\ntextual:  %s", sql, got, want)
		}
	})
}
