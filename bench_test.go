package aqualogic

// Benchmarks regenerating the paper's quantitative content; see DESIGN.md's
// experiment index and EXPERIMENTS.md for recorded results. The end-to-end
// numbers the repo tracks over time come from aqlbench (benchmark/).
//
//	P1  BenchmarkResultHandling — §4: XML materialization vs text decoding
//	P2  BenchmarkTranslate      — §3.2(ii): translator latency per class
//	P3  BenchmarkMetadataCache  — §3.5: metadata fetch-and-cache
//	    BenchmarkEndToEnd       — full driver path per mode
//	    BenchmarkJoinShapes     — ablation: generated join patterns
//	    BenchmarkEngine         — the substrate's own evaluation cost
//	    BenchmarkCompileMiss    — the compile-cache miss path, in process
//	P11 BenchmarkParallelScan   — morsel-parallel execution through the facade
//	    BenchmarkSerialQuery    — a point lookup and a view query, read to the end

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
	"repro/internal/xquery"
)

// wideTable builds a catalog + engine holding one table W with the given
// column count (alternating integer/string/decimal columns, one in eight
// values NULL) and row count — the §4 sweep's data source.
func wideTable(rows, cols int) (*Application, *Engine) {
	columns := make([]Column, cols)
	for i := range columns {
		name := fmt.Sprintf("C%d", i)
		switch i % 3 {
		case 0:
			columns[i] = Column{Name: name, Type: SQLInteger, Nullable: i > 0}
		case 1:
			columns[i] = Column{Name: name, Type: SQLVarchar, Nullable: true, Precision: 32}
		default:
			columns[i] = Column{Name: name, Type: SQLDecimal, Nullable: true, Precision: 10, Scale: 2}
		}
	}
	app := &Application{Name: "BenchApp"}
	app.AddDSFile(&DSFile{Path: "Bench", Name: "W", Functions: []*Function{NewRelationalImport("Bench", "W", columns)}})

	data := make([]*Element, rows)
	for r := range data {
		row := xdm.NewElement("W")
		for c := 0; c < cols; c++ {
			if c > 0 && (r+c)%8 == 0 {
				continue // NULL
			}
			var v string
			switch c % 3 {
			case 0:
				v = fmt.Sprintf("%d", r*31+c)
			case 1:
				v = fmt.Sprintf("value-%d-%d 100%% & <sons>", r, c)
			default:
				v = fmt.Sprintf("%d.%02d", r%1000, c%100)
			}
			row.AddChild(xdm.NewTextElement(columns[c].Name, v))
		}
		data[r] = row
	}
	engine := NewEngine()
	engine.RegisterRows("ld:Bench/W", "W", data)
	return app, engine
}

// payloads is SELECT * over a wideTable serialized in both §4 modes, plus
// the decoding schema, so the client-side decode cost can be measured in
// isolation.
type payloads struct {
	xml, text string
	columns   []resultset.Column
}

func buildPayloads(rows, cols int) (*payloads, error) {
	app, engine := wideTable(rows, cols)
	p := New(app, engine)
	var out payloads
	for _, mode := range []ResultMode{ModeXML, ModeText} {
		cq, err := p.CompileContext(context.Background(), "SELECT * FROM W", mode)
		if err != nil {
			return nil, err
		}
		seq, err := engine.EvalStream(context.Background(), cq.Plan, nil, nil).Drain()
		if err != nil {
			return nil, err
		}
		it, err := seq.Singleton()
		if err != nil {
			return nil, err
		}
		if mode == ModeText {
			out.text = xdm.StringValue(it)
			continue
		}
		root, ok := it.(*Element)
		if !ok {
			return nil, fmt.Errorf("XML result is %T, not an element", it)
		}
		out.xml = xdm.Marshal(root)
		for _, c := range cq.Res.Columns {
			out.columns = append(out.columns, resultset.Column{Label: c.Label, ElementName: c.ElementName, Type: c.Type, Nullable: c.Nullable})
		}
	}
	return &out, nil
}

// translationWorkload is the P2 query mix, one query per complexity class
// the paper's examples span.
var translationWorkload = []struct{ name, sql string }{
	{"simple", "SELECT * FROM CUSTOMERS"},
	{"filter", "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CITY = 'Springfield' AND CUSTOMERID BETWEEN 1000 AND 1040"},
	{"join", "SELECT CUSTOMERS.CUSTOMERNAME, PO_CUSTOMERS.TOTAL FROM CUSTOMERS INNER JOIN PO_CUSTOMERS ON CUSTOMERS.CUSTOMERID = PO_CUSTOMERS.CUSTOMERID"},
	{"outerjoin", "SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENT FROM CUSTOMERS LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"},
	{"subquery", "SELECT INFO.ID FROM (SELECT CUSTOMERID ID, CUSTOMERNAME NAME FROM CUSTOMERS) AS INFO WHERE INFO.ID > 1010"},
	{"grouped", "SELECT CITY, COUNT(*), SUM(CUSTOMERID) FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) > 1 ORDER BY 2 DESC"},
	{"complex", `SELECT C.CITY, COUNT(*) CNT, MAX(P.TOTAL) M
		FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS P ON C.CUSTOMERID = P.CUSTOMERID
		WHERE P.STATUS IN ('OPEN', 'SHIPPED') AND C.CUSTOMERNAME LIKE '%s%'
		GROUP BY C.CITY ORDER BY CNT DESC`},
}

// newDemoTranslator builds a translator over the demo catalog behind a
// metadata cache, optionally with a simulated remote round trip per
// uncached lookup.
func newDemoTranslator(latency time.Duration) (*translator.Translator, *catalog.Cache) {
	var src catalog.Source = catalog.Demo()
	if latency > 0 {
		src = &catalog.Remote{Inner: src, Latency: latency}
	}
	cache := catalog.NewCache(src)
	return translator.New(cache), cache
}

// demoEngine builds the demo deployment at a given customer scale (two
// orders per customer).
func demoEngine(customers int) (*Application, *Engine) {
	sz := demo.DefaultSizes
	sz.Customers = customers
	sz.Orders = customers * 2
	app, _, engine := demo.Setup(sz)
	return app, engine
}

func TestWideTableShape(t *testing.T) {
	app, engine := wideTable(10, 5)
	meta, err := app.Lookup(catalog.TableRef{Table: "W"})
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Function.Columns) != 5 {
		t.Fatalf("columns = %d", len(meta.Function.Columns))
	}
	rows, err := engine.Call("ld:Bench/W", "W", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// TestBuildPayloadsDecodeEquivalence keeps P1 honest: both payloads decode
// to the same 50 rows, NULLs and markup-bearing values included.
func TestBuildPayloadsDecodeEquivalence(t *testing.T) {
	p, err := buildPayloads(50, 6)
	if err != nil {
		t.Fatal(err)
	}
	if p.xml == "" || p.text == "" {
		t.Fatal("empty payloads")
	}
	root, err := xdm.ParseElement(p.xml)
	if err != nil {
		t.Fatal(err)
	}
	xmlRows, err := resultset.FromXML(xdm.SequenceOf(root), p.columns)
	if err != nil {
		t.Fatal(err)
	}
	textRows, err := resultset.FromText(p.text, p.columns)
	if err != nil {
		t.Fatal(err)
	}
	if xmlRows.Len() != 50 || textRows.Len() != 50 {
		t.Fatalf("rows = %d / %d", xmlRows.Len(), textRows.Len())
	}
	for xmlRows.Next() && textRows.Next() {
		for i := range p.columns {
			a, aok, err := xmlRows.String(i)
			if err != nil {
				t.Fatal(err)
			}
			b, bok, err := textRows.String(i)
			if err != nil {
				t.Fatal(err)
			}
			if a != b || aok != bok {
				t.Fatalf("column %d differs: xml %q/%v vs text %q/%v", i, a, aok, b, bok)
			}
		}
	}
}

func TestPayloadsContainEscapedData(t *testing.T) {
	p, err := buildPayloads(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// wideTable plants "100% & <sons>" strings; both encodings must carry
	// them escaped.
	if !strings.Contains(p.xml, "&amp;") || !strings.Contains(p.text, "&amp;") {
		t.Fatal("expected escaped ampersands in payloads")
	}
}

// BenchmarkResultHandling is the headline §4 experiment: the client-side
// cost of turning a query result into a JDBC-style result set, per
// result-handling mode, across a rows × columns sweep.
func BenchmarkResultHandling(b *testing.B) {
	for _, cols := range []int{2, 4, 8} {
		for _, rows := range []int{100, 1000, 10000} {
			p, err := buildPayloads(rows, cols)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("XML/rows=%d/cols=%d", rows, cols), func(b *testing.B) {
				b.SetBytes(int64(len(p.xml)))
				for i := 0; i < b.N; i++ {
					root, err := xdm.ParseElement(p.xml)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := resultset.FromXML(xdm.SequenceOf(root), p.columns); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("Text/rows=%d/cols=%d", rows, cols), func(b *testing.B) {
				b.SetBytes(int64(len(p.text)))
				for i := 0; i < b.N; i++ {
					if _, err := resultset.FromText(p.text, p.columns); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTranslate measures SQL→XQuery translation per query class with
// warm metadata (the "intensive, ad hoc query environment" of §3.2).
func BenchmarkTranslate(b *testing.B) {
	tr, _ := newDemoTranslator(0)
	for _, q := range translationWorkload {
		// Warm the cache and validate the query.
		if _, err := tr.Translate(q.sql); err != nil {
			b.Fatalf("%s: %v", q.name, err)
		}
		b.Run(q.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tr.Translate(q.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetadataCache contrasts cold (every lookup pays the simulated
// remote round trip) and warm translation.
func BenchmarkMetadataCache(b *testing.B) {
	const latency = 200 * time.Microsecond
	sql := "SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENT FROM CUSTOMERS INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"

	b.Run("cold", func(b *testing.B) {
		tr, cache := newDemoTranslator(latency)
		for i := 0; i < b.N; i++ {
			cache.Invalidate()
			if _, err := tr.Translate(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		tr, _ := newDemoTranslator(latency)
		if _, err := tr.Translate(sql); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.Translate(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEndToEnd measures the full pipeline — translate, execute,
// decode — per result mode at two data scales.
func BenchmarkEndToEnd(b *testing.B) {
	for _, customers := range []int{50, 500} {
		p := New(demoEngine(customers))
		sql := "SELECT CUSTOMERID, CUSTOMERNAME, CITY FROM CUSTOMERS WHERE CUSTOMERID >= 1000 ORDER BY CUSTOMERNAME"
		for _, mode := range []struct {
			name string
			m    ResultMode
		}{{"Text", ModeText}, {"XML", ModeXML}} {
			b.Run(fmt.Sprintf("%s/customers=%d", mode.name, customers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := p.QueryStreamMode(context.Background(), mode.m, sql)
					if err != nil {
						b.Fatal(err)
					}
					if rows.Len() != customers {
						b.Fatalf("rows = %d", rows.Len())
					}
				}
			})
		}
	}
}

// BenchmarkJoinShapes is the join-pattern ablation DESIGN.md calls out:
// the flattened double-for inner join vs the let+filter+if-empty outer
// join, executed end to end.
func BenchmarkJoinShapes(b *testing.B) {
	p := New(demoEngine(200))
	queries := map[string]string{
		"inner": "SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENT FROM CUSTOMERS INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
		"outer": "SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENT FROM CUSTOMERS LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
	}
	for name, sql := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngine isolates the substrate: evaluating an already-translated,
// already-planned query, without translation, planning or decoding.
func BenchmarkEngine(b *testing.B) {
	app, engine := demoEngine(200)
	res, err := translator.New(app).Translate("SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.CompileAST(res.Query, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.EvalStream(context.Background(), plan, nil, nil).Drain(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXQueryCompile measures the server-side compile step at the
// driver/server boundary: parsing + statically checking the generated
// XQuery text the driver ships.
func BenchmarkXQueryCompile(b *testing.B) {
	tr, _ := newDemoTranslator(0)
	_, engine := demoEngine(50)
	for _, q := range translationWorkload {
		res, err := tr.Translate(q.sql)
		if err != nil {
			b.Fatal(err)
		}
		text := res.XQuery()
		b.Run(q.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parsed, err := xquery.Parse(text)
				if err != nil {
					b.Fatal(err)
				}
				if err := engine.Check(parsed, externalNames(res.ParamCount)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileMiss is the compile-cache miss path in process: the
// golden corpus compiled through the Platform with its compile cache
// disabled, so every op lexes, parses, translates, checks and plans one
// statement — and renders no XQuery text. Run with -benchmem; ns/op and
// allocs/op are per statement.
func BenchmarkCompileMiss(b *testing.B) {
	p := Demo()
	p.EnableResilience(ResilienceConfig{CompileCacheEntries: -1})
	corpus := compiledCorpus()
	for _, sql := range corpus { // warm the metadata cache
		if _, err := p.CompileContext(context.Background(), sql, ModeText); err != nil {
			b.Fatalf("%q: %v", sql, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.CompileContext(context.Background(), corpus[i%len(corpus)], ModeText); err != nil {
			b.Fatal(err)
		}
	}
	if s := p.CompileStats(); s.Hits != 0 {
		b.Fatalf("compile cache served %d hits; every op must miss", s.Hits)
	}
}

func externalNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("p%d", i+1)
	}
	return out
}

// BenchmarkParallelScan is the P11 smoke axis: the demo join through the
// full facade at several degrees of parallelism, with morsels sized so
// even the 50-row demo scans fan out. CI's bench-smoke runs it once per
// worker count to prove the parallel path stays executable.
func BenchmarkParallelScan(b *testing.B) {
	const sql = "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID"
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := Demo()
			xqeval.ForceFanOutForTest(p.Engine, workers, 8, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := p.Query(sql)
				if err != nil {
					b.Fatal(err)
				}
				if err := rows.Materialize(); err != nil {
					b.Fatal(err)
				}
				rows.Close()
			}
		})
	}
}

// BenchmarkCorrelatedJoinScaling runs aqlbench join_group_xml's two
// correlated statements — the §3.5 NULL-padded outer join and the NOT
// EXISTS drill — through the facade in XML mode, materialized, at three
// data scales (customers / orders). Both are hash probes into a table
// built once per evaluation, so 4× the rows should cost about 4× the time,
// not the 13× of the nested loops they replaced (EXPERIMENTS.md).
func BenchmarkCorrelatedJoinScaling(b *testing.B) {
	stmts := []struct {
		name, sql string
		arg       int
	}{
		{"outer", "SELECT C.CUSTOMERID, C.CUSTOMERNAME, O.ORDERID, O.TOTAL FROM CUSTOMERS C LEFT OUTER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID WHERE C.CUSTOMERID >= ?", 1000},
		{"notexists", "SELECT C.CUSTOMERID, C.CUSTOMERNAME FROM CUSTOMERS C WHERE NOT EXISTS (SELECT 1 FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID AND O.TOTAL > ?)", 500},
	}
	for _, customers := range []int{150, 600, 2000} {
		p := New(demoEngine(customers))
		for _, st := range stmts {
			b.Run(fmt.Sprintf("%s/customers=%d/orders=%d", st.name, customers, 2*customers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := p.QueryStreamMode(context.Background(), ModeXML, st.sql, st.arg)
					if err != nil {
						b.Fatal(err)
					}
					if err := rows.Materialize(); err != nil {
						b.Fatal(err)
					}
					rows.Close()
				}
			})
		}
	}
}

// BenchmarkRepeatedReport runs aqlbench join_group_xml's three statements
// — the GROUP BY report, the §3.5 outer join and the NOT EXISTS drill — as
// prepared statements, XML mode, materialized, with the parameter changing
// on every execution, as a reporting tool re-runs one report. What reads
// no parameter (the report's and the outer join's RECORDSETs, the drill's
// build table) is built by the first execution and kept with the cached
// plan, so the rest re-run only what reads the parameter.
func BenchmarkRepeatedReport(b *testing.B) {
	stmts := []struct {
		name, sql string
		args      []int
	}{
		{"report", "SELECT C.CITY, COUNT(*) CNT, SUM(O.TOTAL) REVENUE, MAX(O.TOTAL) TOP FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID WHERE O.STATUS IN ('OPEN', 'SHIPPED') GROUP BY C.CITY HAVING COUNT(*) > ? ORDER BY CNT DESC, C.CITY", []int{4, 6, 8, 10}},
		{"outer", "SELECT C.CUSTOMERID, C.CUSTOMERNAME, O.ORDERID, O.TOTAL FROM CUSTOMERS C LEFT OUTER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID WHERE C.CUSTOMERID >= ?", []int{1000, 1002, 1004, 1006}},
		{"drill", "SELECT C.CUSTOMERID, C.CUSTOMERNAME FROM CUSTOMERS C WHERE NOT EXISTS (SELECT 1 FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID AND O.TOTAL > ?)", []int{500, 1500, 2500, 3500}},
	}
	p := New(demoEngine(150))
	for _, st := range stmts {
		b.Run(st.name, func(b *testing.B) {
			ps, err := p.Prepare(context.Background(), st.sql, ModeXML)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := ps.Execute(context.Background(), st.args[i%len(st.args)])
				if err != nil {
					b.Fatal(err)
				}
				if err := rows.Materialize(); err != nil {
					b.Fatal(err)
				}
				rows.Close()
			}
		})
	}
}

// BenchmarkSerialQuery times two prepared Demo() statements whose cost is
// mostly per-execution overhead rather than rows: a point lookup, and a
// query over a five-row view (the view's own execution runs inside the
// outer one's data service call). Each is read to its end in text mode.
func BenchmarkSerialQuery(b *testing.B) {
	ctx := context.Background()
	p := Demo()
	if err := p.DefineView("Logical", "FIRST_FIVE", "SELECT CUSTOMERID, CITY FROM CUSTOMERS WHERE CUSTOMERID < 1005"); err != nil {
		b.Fatal(err)
	}
	for _, st := range []struct {
		name, sql string
		args      []any
	}{
		{"point", "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID = ?", []any{1007}},
		{"view", "SELECT CUSTOMERID, CITY FROM FIRST_FIVE", nil},
	} {
		b.Run(st.name, func(b *testing.B) {
			ps, err := p.Prepare(ctx, st.sql, ModeText)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := ps.Execute(ctx, st.args...)
				if err != nil {
					b.Fatal(err)
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					b.Fatal(err)
				}
				rows.Close()
			}
		})
	}
}
