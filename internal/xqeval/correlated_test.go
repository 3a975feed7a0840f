// Nets for correlated lookups run as hash probes (plan.go's probe rule):
// the §3.5 outer join's filter, and the FLWORs of EXISTS, NOT EXISTS, IN,
// NOT IN and ANY subqueries, probe a hash table built once per evaluation
// instead of rescanning their source per outer row. The naive evaluator is
// the oracle: every statement below must give it byte-identical results
// under the engine's plan at 1, 2 and 8 workers, materialized and
// streamed, in both result modes, and again when a plan reuses the tables
// it kept.
package xqeval_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
	"repro/internal/xquery"
)

// corrSetup is a customers/orders pair on the edges of a keyed lookup:
// duplicate, missing and NULL keys on both sides, a column whose one value
// matches every order (ONE), an empty table (EO), and a view V — a data
// service whose body is another query over O, as aqualogic.DefineView
// registers one.
func corrSetup(t testing.TB) (*catalog.Application, *xqeval.Engine) {
	t.Helper()
	app := &catalog.Application{Name: "CorrApp"}
	e := xqeval.New()
	orderCols := []catalog.Column{
		{Name: "OID", Type: catalog.SQLInteger},
		{Name: "CID", Type: catalog.SQLInteger, Nullable: true},
		{Name: "AMT", Type: catalog.SQLDecimal, Nullable: true, Precision: 10, Scale: 2},
		{Name: "ONE", Type: catalog.SQLInteger},
	}
	tables := []struct {
		name string
		cols []catalog.Column
		rows [][]string // name/value pairs; an absent column is NULL
	}{
		{"C", []catalog.Column{
			{Name: "ID", Type: catalog.SQLInteger},
			{Name: "NAME", Type: catalog.SQLVarchar, Nullable: true, Precision: 16},
			{Name: "GRP", Type: catalog.SQLInteger, Nullable: true},
			{Name: "REF", Type: catalog.SQLInteger, Nullable: true},
		}, [][]string{
			{"ID", "1", "NAME", "ann", "GRP", "1", "REF", "10"},
			{"ID", "2", "NAME", "bob", "GRP", "2", "REF", "13"},
			{"ID", "3", "GRP", "1"},
			{"ID", "4", "NAME", "dee", "REF", "14"},
			{"ID", "5", "NAME", "eve", "GRP", "5", "REF", "10"},
			{"ID", "6", "NAME", "fay", "GRP", "1", "REF", "99"},
			{"ID", "7", "NAME", "gus"},
			{"ID", "8", "NAME", "hal", "GRP", "0", "REF", "17"},
		}},
		{"O", orderCols, [][]string{
			{"OID", "10", "CID", "1", "AMT", "5.00", "ONE", "1"},
			{"OID", "11", "CID", "1", "AMT", "50.00", "ONE", "1"},
			{"OID", "12", "CID", "1", "ONE", "1"},
			{"OID", "13", "CID", "2", "AMT", "7.50", "ONE", "1"},
			{"OID", "14", "CID", "4", "AMT", "70.00", "ONE", "1"},
			{"OID", "15", "CID", "4", "AMT", "70.00", "ONE", "1"},
			{"OID", "16", "AMT", "1.00", "ONE", "1"},
			{"OID", "17", "ONE", "1"},
			{"OID", "18", "CID", "99", "AMT", "3.00", "ONE", "1"},
			{"OID", "19", "CID", "8", "AMT", "0.50", "ONE", "1"},
		}},
		{"EO", orderCols, nil},
	}
	for _, tb := range tables {
		app.AddDSFile(&catalog.DSFile{Path: "Corr", Name: tb.name, Functions: []*catalog.Function{
			catalog.NewRelationalImport("Corr", tb.name, tb.cols),
		}})
		rows := make([]*xdm.Element, len(tb.rows))
		for i, cells := range tb.rows {
			rows[i] = xdm.NewElement(tb.name)
			for j := 0; j < len(cells); j += 2 {
				rows[i].AddChild(xdm.NewTextElement(cells[j], cells[j+1]))
			}
		}
		e.RegisterRows("ld:Corr/"+tb.name, tb.name, rows)
	}

	// V: the orders above 4.00, through a nested evaluation.
	res, err := translator.New(app).Translate("SELECT OID, CID, AMT FROM O WHERE AMT > 4")
	if err != nil {
		t.Fatal(err)
	}
	view := xqeval.MustCompile(t, e, res.Query, nil)
	app.AddDSFile(&catalog.DSFile{Path: "Corr", Name: "V", Functions: []*catalog.Function{
		catalog.NewRelationalImport("Corr", "V", orderCols[:3]),
	}})
	e.Register("ld:Corr/V", "V", func([]xdm.Sequence) (xdm.Sequence, error) {
		out, err := e.EvalStream(context.Background(), view, nil, nil).Drain()
		if err != nil {
			return nil, err
		}
		var rows xdm.Sequence
		for _, rec := range out[0].(*xdm.Element).ChildElements("RECORD") {
			row := xdm.NewElement("V")
			for _, c := range res.Columns {
				if cell := rec.FirstChildElement(c.ElementName); cell != nil {
					row.AddChild(xdm.NewTextElement(c.Label, cell.StringValue()))
				}
			}
			rows = append(rows, row)
		}
		return rows, nil
	})
	return app, e
}

// corrStatements are the correlated shapes, each of which must plan a hash
// probe. $p1 binds to 6.
var corrStatements = []string{
	// §3.5 outer join: NULL padding, duplicate and missing keys, NULL keys
	// on the outer side (REF), an ON conjunct beyond the key, WHERE on the
	// padded side, a key every order matches (ONE).
	"SELECT C.ID, O.OID, O.AMT FROM C LEFT OUTER JOIN O ON C.ID = O.CID",
	"SELECT C.ID, C.REF, O.OID FROM C LEFT OUTER JOIN O ON C.REF = O.OID",
	"SELECT C.ID, O.OID FROM C LEFT OUTER JOIN O ON C.ID = O.CID AND O.AMT > ?",
	"SELECT C.ID, O.OID FROM C LEFT OUTER JOIN O ON C.ID = O.CID WHERE O.OID IS NULL",
	"SELECT C.ID, O.AMT FROM C LEFT OUTER JOIN O ON C.ID = O.CID WHERE O.AMT > 6 OR O.AMT IS NULL",
	"SELECT C.ID, O.OID FROM C LEFT OUTER JOIN O ON C.GRP = O.ONE",
	"SELECT C.ID, E.OID FROM C LEFT OUTER JOIN EO E ON C.ID = E.CID",
	// Semi- and anti-joins: EXISTS, NOT EXISTS with a non-equi conjunct,
	// IN, NOT IN, ANY, a scalar subquery, an empty source.
	"SELECT ID FROM C WHERE EXISTS (SELECT 1 FROM O WHERE O.CID = C.ID)",
	"SELECT ID, NAME FROM C WHERE NOT EXISTS (SELECT 1 FROM O WHERE O.CID = C.ID AND O.AMT > ?)",
	"SELECT ID FROM C WHERE REF IN (SELECT O.OID FROM O WHERE O.CID = C.ID)",
	"SELECT ID FROM C WHERE REF NOT IN (SELECT O.OID FROM O WHERE O.CID = C.ID)",
	"SELECT ID FROM C WHERE GRP < ANY (SELECT O.AMT FROM O WHERE O.CID = C.ID)",
	"SELECT ID, (SELECT MAX(AMT) FROM O WHERE O.CID = C.ID) FROM C",
	"SELECT ID FROM C WHERE NOT EXISTS (SELECT 1 FROM EO E WHERE E.CID = C.ID)",
	// Two levels: the inner subquery probes with the middle one's row.
	"SELECT ID FROM C WHERE EXISTS (SELECT 1 FROM O WHERE O.CID = C.ID AND NOT EXISTS (SELECT 1 FROM O O2 WHERE O2.CID = O.CID AND O2.AMT > O.AMT))",
	// A view as the probed source.
	"SELECT C.ID, V.OID FROM C LEFT OUTER JOIN V ON C.ID = V.CID",
	"SELECT ID FROM C WHERE NOT EXISTS (SELECT 1 FROM V WHERE V.CID = C.ID)",
}

// corrParams binds $p1…$pN to 6.
func corrParams(n int) map[string]xdm.Sequence {
	ext := map[string]xdm.Sequence{}
	for i := 1; i <= n; i++ {
		ext["p"+strconv.Itoa(i)] = xdm.SequenceOf(xdm.Integer(6))
	}
	return ext
}

func TestCorrelatedLookupsMatchNaive(t *testing.T) {
	app, e := corrSetup(t)
	defer xqeval.ForceFanOutForTest(e, 0, 0, 0)
	ctx := context.Background()
	fanned := false
	for _, mode := range []translator.ResultMode{translator.ModeXML, translator.ModeText} {
		tr := translator.New(app)
		tr.Options.Mode = mode
		for _, sql := range corrStatements {
			res, err := tr.Translate(sql)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			ext := corrParams(res.ParamCount)
			naive, err := e.EvalNaive(ctx, res.Query, ext)
			if err != nil {
				t.Fatalf("%q naive: %v", sql, err)
			}
			want := xdm.MarshalSequence(naive)
			text := mode == translator.ModeText
			wantStream, err := drainChunks(e.EvalStreamNaive(ctx, res.Query, ext, nil), text)
			if err != nil {
				t.Fatalf("%q naive stream: %v", sql, err)
			}

			plan, err := e.CompileAST(res.Query, externalNames(res.ParamCount))
			if err != nil {
				t.Fatal(err)
			}
			if d := strings.Join(plan.Describe(), "\n"); !strings.Contains(d, "hash probe") {
				t.Fatalf("%q: no hash probe planned:\n%s", sql, d)
			}
			check := func(workers int, materialized, streamed *xqeval.Plan, label string) {
				// Two-row morsels: the eight customers fan out to four
				// morsels, whose workers race to build the shared table.
				xqeval.ForceFanOutForTest(e, workers, 2, 2)
				morsels := e.Stats().MorselsProcessed
				got, err := e.EvalStream(ctx, materialized, ext, nil).Drain()
				if err != nil {
					t.Fatalf("%q, mode %v, %s: %v", sql, mode, label, err)
				}
				if g := xdm.MarshalSequence(got); g != want {
					t.Fatalf("%q, mode %v, %s: planned diverges from naive\nplanned: %s\nnaive:   %s", sql, mode, label, g, want)
				}
				rows, err := drainChunks(e.EvalStream(ctx, streamed, ext, nil), text)
				if err != nil {
					t.Fatalf("%q, mode %v, %s stream: %v", sql, mode, label, err)
				}
				if rows != wantStream {
					t.Fatalf("%q, mode %v, %s: stream diverges from naive\nplanned: %s\nnaive:   %s", sql, mode, label, rows, wantStream)
				}
				fanned = fanned || workers > 1 && e.Stats().MorselsProcessed > morsels
			}
			// Every evaluation at each worker count runs on a copy with
			// nothing kept, so it builds its tables.
			for _, workers := range []int{1, 2, 8} {
				check(workers, xqeval.FreshKept(plan), xqeval.FreshKept(plan), fmt.Sprintf("workers %d", workers))
			}
			// Then plan itself: the first evaluation builds and keeps
			// its tables, the later ones reuse them.
			check(8, plan, plan, "workers 8, build")
			check(8, plan, plan, "workers 8, reuse")
		}
	}
	if s := e.Stats(); s.KeptReuses == 0 {
		t.Fatalf("no plan reused a kept table (%d kept)", s.KeptBuilds)
	}
	if !fanned {
		t.Fatal("no statement fanned out to morsel workers")
	}
}

// drainChunks pulls a cursor dry, one line per chunk: a text row's string
// (from tuples or from RECORD elements, the same characters), or an XML
// row's markup.
func drainChunks(cur *xqeval.Cursor, text bool) (string, error) {
	defer cur.Close()
	var out []string
	for {
		chunk, err := cur.Next()
		if err == io.EOF {
			return strings.Join(out, "\n"), nil
		}
		if err != nil {
			return "", err
		}
		if text {
			out = append(out, rowText(chunk))
		} else {
			out = append(out, xdm.MarshalSequence(chunk))
		}
	}
}

// corrAtoms is an engine whose L and R return atoms of every comparison
// class the hash keys distinguish: typed numerics, strings, untyped
// numerals (numeric against numbers, lexical against strings), a NaN
// (equal to every number, so held in the residual list) and a duplicate.
func corrAtoms() *xqeval.Engine {
	seq := func(vs ...xdm.Atomic) xdm.Sequence {
		s := make(xdm.Sequence, len(vs))
		for i, v := range vs {
			s[i] = v
		}
		return s
	}
	e := xqeval.New()
	e.Register("urn:j", "L", func([]xdm.Sequence) (xdm.Sequence, error) {
		return seq(xdm.Integer(1), xdm.Double(2.5), xdm.Decimal(2), xdm.String("1"), xdm.Untyped("01"), xdm.Integer(7)), nil
	})
	e.Register("urn:j", "R", func([]xdm.Sequence) (xdm.Sequence, error) {
		return seq(xdm.Untyped("1"), xdm.Untyped("2"), xdm.Untyped("01"), xdm.Untyped("2"), xdm.Double(2.5), xdm.Untyped("NaN")), nil
	})
	row := func(keys ...string) *xdm.Element {
		el := xdm.NewElement("ROW")
		for _, k := range keys {
			el.AddChild(xdm.NewTextElement("K", k))
		}
		return el
	}
	e.RegisterRows("urn:j", "ML", []*xdm.Element{row("1"), row("2", "9"), row(), row("4")})
	e.RegisterRows("urn:j", "MR", []*xdm.Element{row("9", "2"), row(), row("1"), row("3", "4", "1")})
	return e
}

// TestCorrelatedProbeKeyClasses runs hand-written correlated lookups — the
// FLWOR and the filter form, `=` and `eq`, single- and multi-item keys —
// over keys of every comparison class, planned against naive.
func TestCorrelatedProbeKeyClasses(t *testing.T) {
	const prolog = `import schema namespace j = "urn:j" at "j.xsd";` + "\n"
	for _, body := range []string{
		`for $a in j:L() where fn:exists(for $b in j:R() where $b = $a return $b) return $a`,
		`for $a in j:L() where fn:not(fn:exists(for $b in j:R() where $a = $b return $b)) return $a`,
		`for $a in j:L() return (for $b in j:R() where $b = $a return ($a, $b))`,
		`for $a in j:L() let $m := j:R()[(. = $a)] return if (fn:empty($m)) then ("pad", $a) else ($a, $m)`,
		`for $a in j:ML() let $m := j:MR()[($a/K = K)] return (fn:count($m), fn:data($m/K))`,
		`for $a in j:ML() where fn:not(fn:exists(for $b in j:MR() where $b/K = $a/K return $b)) return fn:data($a/K)`,
		`for $a in j:ML() where fn:exists($a/K) and fn:exists(for $b in j:MR() where fn:exists($b/K) and fn:data($b/K)[1] eq fn:data($a/K)[1] return $b) return fn:data($a/K)`,
		`for $a in j:ML() return fn:count(j:MR()[(fn:string(K[1]) eq fn:string($a/K[1]))])`,
	} {
		q, err := xquery.Parse(prolog + body)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		e := corrAtoms()
		naive, nerr := e.EvalNaive(context.Background(), q, nil)
		plan := xqeval.MustCompile(t, e, q, nil)
		if plan.HashJoins == 0 {
			t.Fatalf("%s: no hash probe planned:\n%s", body, strings.Join(plan.Describe(), "\n"))
		}
		got, perr := e.EvalStream(context.Background(), plan, nil, nil).Drain()
		if (perr == nil) != (nerr == nil) {
			t.Fatalf("%s: error divergence: planned %v, naive %v", body, perr, nerr)
		}
		if g, w := xdm.MarshalSequence(got), xdm.MarshalSequence(naive); g != w {
			t.Fatalf("%s: planned diverges from naive\nplanned: %s\nnaive:   %s", body, g, w)
		}
	}
}

// TestCorrelatedLimitsSameKind: a resource limit both evaluations hit
// surfaces as the same typed error kind.
func TestCorrelatedLimitsSameKind(t *testing.T) {
	app, e := corrSetup(t)
	defer e.SetLimits(xqeval.Limits{})
	for _, lim := range []xqeval.Limits{{MaxRows: 3}, {MaxTuples: 5}} {
		e.SetLimits(lim)
		for _, sql := range corrStatements[:9] {
			res, err := translator.New(app).Translate(sql)
			if err != nil {
				t.Fatal(err)
			}
			ext := corrParams(res.ParamCount)
			_, nerr := e.EvalNaive(context.Background(), res.Query, ext)
			_, perr := e.EvalStream(context.Background(), xqeval.MustCompile(t, e, res.Query, ext), ext, nil).Drain()
			for _, err := range []error{nerr, perr} {
				var qe *aqerr.QueryError
				if !errors.As(err, &qe) || qe.Kind != aqerr.KindResourceLimit {
					t.Fatalf("%q under %+v: want a resource-limit error from both, got naive %v, planned %v", sql, lim, nerr, perr)
				}
			}
		}
	}
}

// TestCorrelatedSourceCalledOncePerEvaluation: the probed source is called
// once per evaluation, not once per outer row.
func TestCorrelatedSourceCalledOncePerEvaluation(t *testing.T) {
	calls := 0
	e := xqeval.New()
	e.Register("urn:j", "L", func([]xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Sequence{xdm.Integer(1), xdm.Integer(2), xdm.Integer(3)}, nil
	})
	e.Register("urn:j", "R", func([]xdm.Sequence) (xdm.Sequence, error) {
		calls++
		return xdm.Sequence{xdm.Integer(2)}, nil
	})
	q, err := xquery.Parse(`import schema namespace j = "urn:j" at "j.xsd";
for $a in j:L() where fn:not(fn:exists(for $b in j:R() where $b = $a return $b)) return ($a, fn:count(j:R()[(. = $a)]))`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.EvalStream(context.Background(), xqeval.MustCompile(t, e, q, nil), nil, nil).Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.MarshalSequence(out); got != "1 0 3 0" {
		t.Fatalf("out = %q", got)
	}
	if calls != 2 { // one table for the NOT EXISTS, one for the filter
		t.Fatalf("R called %d times, want 2", calls)
	}
}

// TestCorrelatedLookupsScaleLinearly is the scaling guard, by evaluation
// steps rather than time: quadrupling customers and orders may multiply
// the outer join's and the NOT EXISTS drill's steps by at most 6 — a
// nested loop multiplies them by about 16.
func TestCorrelatedLookupsScaleLinearly(t *testing.T) {
	stmts := []string{
		"SELECT C.CUSTOMERID, C.CUSTOMERNAME, O.ORDERID, O.TOTAL FROM CUSTOMERS C LEFT OUTER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID WHERE C.CUSTOMERID >= ?",
		"SELECT C.CUSTOMERID, C.CUSTOMERNAME FROM CUSTOMERS C WHERE NOT EXISTS (SELECT 1 FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID AND O.TOTAL > ?)",
	}
	steps := func(n int, sql string) int64 {
		app, _, e := demo.Setup(demo.Sizes{Customers: n, PaymentsPerCustomer: 1, Orders: 2 * n, ItemsPerOrder: 1})
		res, err := translator.New(app).Translate(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.CompileAST(res.Query, externalNames(res.ParamCount))
		if err != nil {
			t.Fatal(err)
		}
		ext := map[string]xdm.Sequence{"p1": xdm.SequenceOf(xdm.Integer(1000))}
		cur := e.EvalStream(context.Background(), plan, ext, nil)
		if _, err := drainCursor(cur); err != nil {
			t.Fatal(err)
		}
		s, _ := cur.Stats()
		return s
	}
	for _, sql := range stmts {
		small, large := steps(60, sql), steps(240, sql)
		ratio := float64(large) / float64(small)
		t.Logf("%q: %d steps at 60/120, %d at 240/480 (×%.2f)", sql, small, large, ratio)
		if ratio > 6 {
			t.Errorf("%q: %d steps at 60/120, %d at 240/480 (×%.1f, want ≤ 6)", sql, small, large, ratio)
		}
	}
}

// The probe-filter rewrite only takes filters it can restate: anything
// else — a positional predicate, a constant key, a second predicate, a
// source reading an outer binding — stays the nested-loop filter.
func TestProbeFilterDeclines(t *testing.T) {
	const prolog = `import schema namespace j = "urn:j" at "j.xsd";` + "\n"
	for _, body := range []string{
		`for $a in j:L() return j:R()[2]`,
		`for $a in j:L() return j:R()[(. = 2)]`,
		`for $a in j:L() return j:R()[(. = $a)][1]`,
		`for $a in j:L() return ($a, $a)[(. = $a)]`,
		`for $a in j:L() return j:R()[(. > $a)]`,
	} {
		q, err := xquery.Parse(prolog + body)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if p := xqeval.MustCompile(t, corrAtoms(), q, nil); p.HashJoins != 0 {
			t.Errorf("%s: planned a hash probe:\n%s", body, strings.Join(p.Describe(), "\n"))
		}
	}
}
