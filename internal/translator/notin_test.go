package translator_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// nullSetup is four one-column tables whose K values sit on the edges of
// SQL-92's three-valued IN: TA = {1, 2, 3, NULL}, TB = {1, NULL},
// TC = {1, 4}, TE = {}.
func nullSetup() (*catalog.Application, *xqeval.Engine) {
	app := &catalog.Application{Name: "NullApp"}
	e := xqeval.New()
	for name, keys := range map[string][]string{
		"TA": {"1", "2", "3", ""},
		"TB": {"1", ""},
		"TC": {"1", "4"},
		"TE": nil,
	} {
		app.AddDSFile(&catalog.DSFile{Path: "Null", Name: name, Functions: []*catalog.Function{
			catalog.NewRelationalImport("Null", name, []catalog.Column{{Name: "K", Type: catalog.SQLInteger, Nullable: true}}),
		}})
		rows := make([]*xdm.Element, len(keys))
		for i, k := range keys {
			rows[i] = xdm.NewElement(name)
			if k != "" {
				rows[i].AddChild(xdm.NewTextElement("K", k))
			}
		}
		e.RegisterRows("ld:Null/"+name, name, rows)
	}
	return app, e
}

// runNullBoth evaluates sql in XML mode planned and naive and in text mode
// planned, requires the three to agree, and returns the rows
// comma-separated, each row's columns colon-separated.
func runNullBoth(t *testing.T, app *catalog.Application, e *xqeval.Engine, sql string) string {
	t.Helper()
	var got []string
	for _, mode := range []translator.ResultMode{translator.ModeXML, translator.ModeText} {
		tr := translator.New(app)
		tr.Options.Mode = mode
		res, err := tr.Translate(sql)
		if err != nil {
			t.Fatalf("translate %q: %v", sql, err)
		}
		evals := []func() (xdm.Sequence, error){func() (xdm.Sequence, error) { return evalQuery(e, res.Query, nil) }}
		if mode == translator.ModeXML {
			evals = append(evals, func() (xdm.Sequence, error) {
				return e.EvalNaiveWithTrace(context.Background(), res.Query, nil, nil)
			})
		}
		for _, eval := range evals {
			out, err := eval()
			if err != nil {
				t.Fatalf("execute %q: %v\n%s", sql, err, res.XQuery())
			}
			var rows *resultset.Rows
			if mode == translator.ModeXML {
				rows, err = resultset.FromXML(out, toColumns(res.Columns))
			} else {
				var it xdm.Item
				if it, err = out.Singleton(); err == nil {
					rows, err = resultset.FromText(xdm.StringValue(it), toColumns(res.Columns))
				}
			}
			if err != nil {
				t.Fatalf("decode %q: %v", sql, err)
			}
			got = append(got, rowsText(t, rows, len(res.Columns)))
		}
	}
	for _, g := range got[1:] {
		if g != got[0] {
			t.Fatalf("%q: planned XML, naive XML and text disagree: %q", sql, got)
		}
	}
	return got[0]
}

// TestExecNotInThreeValued pins SQL-92's NOT IN: TRUE for an empty
// subquery whatever the operand, otherwise TRUE only for a non-NULL operand
// that matches no value of a subquery holding no NULL. Before the fix the
// translation was two-valued: TA NOT IN TB gave 2,3 and NULL NOT IN () gave
// nothing.
func TestExecNotInThreeValued(t *testing.T) {
	app, e := nullSetup()
	for _, c := range []struct{ sql, want string }{
		{"SELECT K FROM TA WHERE K NOT IN (SELECT K FROM TB)", ""},
		{"SELECT K FROM TA WHERE K NOT IN (SELECT K FROM TE)", "1,2,3,NULL"},
		{"SELECT K FROM TA WHERE K NOT IN (SELECT K FROM TC)", "2,3"},
		{"SELECT K FROM TA WHERE K NOT IN (SELECT K FROM TB WHERE K IS NOT NULL)", "2,3"},
		{"SELECT K FROM TA WHERE K IN (SELECT K FROM TB)", "1"},
		{"SELECT K FROM TA WHERE K NOT IN (1, NULL)", ""},
		{"SELECT K FROM TA WHERE K NOT IN (1, 4)", "2,3"},
		{"SELECT K FROM TA WHERE K NOT IN (1)", "2,3"},
		{"SELECT K FROM TA WHERE K IN (1, NULL)", "1"},
		// Correlated: an empty subquery for the NULL operand, a NULL in it
		// for every operand.
		{"SELECT K FROM TA A WHERE K NOT IN (SELECT K FROM TC C WHERE C.K >= A.K)", "2,3,NULL"},
		{"SELECT K FROM TA A WHERE K NOT IN (SELECT K FROM TB B WHERE B.K < A.K OR B.K IS NULL)", ""},
		// Row values: (a, b) <> (x, y) is a <> x OR b <> y.
		{"SELECT K FROM TA WHERE (K, 1) NOT IN (SELECT K, 1 FROM TB)", ""},
		{"SELECT K FROM TA WHERE (K, 0) NOT IN (SELECT K, 1 FROM TB)", "1,2,3,NULL"},
		{"SELECT K FROM TA WHERE (K, 1) NOT IN (SELECT K, 1 FROM TE)", "1,2,3,NULL"},
		{"SELECT K FROM TA WHERE (K, 1) NOT IN (SELECT K, 1 FROM TC)", "2,3"},
		{"SELECT K FROM TA WHERE (K, 1) NOT IN ((1, 1), (NULL, 1))", ""},
		{"SELECT K FROM TA WHERE (K, 1) NOT IN ((1, 1), (4, 1))", "2,3"},
		{"SELECT K FROM TA WHERE (K, 1) IN ((1, 1), (4, 1))", "1"},
	} {
		if got := runNullBoth(t, app, e, c.sql); got != c.want {
			t.Errorf("%s\n got  %q\n want %q", c.sql, got, c.want)
		}
	}
}

// TestNotInTranslationAvoidsQuantifier: the NOT IN test must not rebind the
// context item, which an outer join's ON predicate reads its inner
// columns through.
func TestNotInTranslationAvoidsQuantifier(t *testing.T) {
	app, e := nullSetup()
	sql := "SELECT A.K, C.K FROM TA A LEFT OUTER JOIN TC C ON A.K = C.K AND C.K NOT IN (SELECT K FROM TE)"
	res, err := translator.New(app).Translate(sql)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.XQuery(), "satisfies") {
		t.Fatalf("NOT IN translated through a quantifier:\n%s", res.XQuery())
	}
	if got := runNullBoth(t, app, e, sql); got != "1:1,2:NULL,3:NULL,NULL:NULL" {
		t.Fatalf("got %q", got)
	}
}

// rowsText renders every row's n columns, NULL as "NULL".
func rowsText(t *testing.T, rows *resultset.Rows, n int) string {
	t.Helper()
	cols := make([][]string, n)
	for i := range cols {
		cols[i] = column(t, rows, i)
	}
	out := make([]string, rows.Len())
	for r := range out {
		cells := make([]string, n)
		for i := range cells {
			cells[i] = cols[i][r]
		}
		out[r] = strings.Join(cells, ":")
	}
	return strings.Join(out, ",")
}
