package aqualogic

// Benchmarks regenerating the paper's quantitative content; see DESIGN.md's
// experiment index and EXPERIMENTS.md for recorded results.
//
//	P1  BenchmarkResultHandling — §4: XML materialization vs text decoding
//	P2  BenchmarkTranslate      — §3.2(ii): translator latency per class
//	P3  BenchmarkMetadataCache  — §3.5: metadata fetch-and-cache
//	    BenchmarkEndToEnd       — full driver path per mode
//	    BenchmarkJoinShapes     — ablation: generated join patterns
//	    BenchmarkEngine         — the substrate's own evaluation cost
//	P6  BenchmarkEvalJoinPlan   — evaluator planner: nested loop vs hash join
//	P11 BenchmarkParallelScan   — morsel-parallel execution through the facade

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/translator"
	"repro/internal/xquery"
)

// BenchmarkResultHandling is the headline §4 experiment: the client-side
// cost of turning a query result into a JDBC-style result set, per
// result-handling mode, across a rows × columns sweep.
func BenchmarkResultHandling(b *testing.B) {
	for _, cols := range []int{2, 4, 8} {
		for _, rows := range []int{100, 1000, 10000} {
			p, err := bench.BuildPayloads(rows, cols)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("XML/rows=%d/cols=%d", rows, cols), func(b *testing.B) {
				b.SetBytes(int64(len(p.XML)))
				for i := 0; i < b.N; i++ {
					if _, err := p.DecodeXML(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("Text/rows=%d/cols=%d", rows, cols), func(b *testing.B) {
				b.SetBytes(int64(len(p.Text)))
				for i := 0; i < b.N; i++ {
					if _, err := p.DecodeText(); err != nil {
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
	tr, _ := bench.NewDemoTranslator(0, true)
	for _, q := range bench.TranslationWorkload {
		// Warm the cache and validate the query.
		if _, err := tr.Translate(q.SQL); err != nil {
			b.Fatalf("%s: %v", q.Name, err)
		}
		b.Run(q.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tr.Translate(q.SQL); err != nil {
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
		tr, cache := bench.NewDemoTranslator(latency, true)
		for i := 0; i < b.N; i++ {
			cache.Invalidate()
			if _, err := tr.Translate(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		tr, _ := bench.NewDemoTranslator(latency, true)
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
		app, engine := bench.DemoEngine(customers)
		p := New(app, engine)
		sql := "SELECT CUSTOMERID, CUSTOMERNAME, CITY FROM CUSTOMERS WHERE CUSTOMERID >= 1000 ORDER BY CUSTOMERNAME"
		for _, mode := range []struct {
			name string
			m    ResultMode
		}{{"Text", ModeText}, {"XML", ModeXML}} {
			b.Run(fmt.Sprintf("%s/customers=%d", mode.name, customers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := p.QueryMode(mode.m, sql)
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
	app, engine := bench.DemoEngine(200)
	p := New(app, engine)
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

// BenchmarkEngine isolates the substrate: evaluating an already-translated
// query, without translation or decoding.
func BenchmarkEngine(b *testing.B) {
	app, engine := bench.DemoEngine(200)
	tr := translator.New(app)
	res, err := tr.Translate("SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Eval(res.Query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXQueryCompile measures the server-side compile step at the
// driver/server boundary: parsing + statically checking the generated
// XQuery text the driver ships.
func BenchmarkXQueryCompile(b *testing.B) {
	tr, _ := bench.NewDemoTranslator(0, true)
	app, engine := bench.DemoEngine(50)
	_ = app
	for _, q := range bench.TranslationWorkload {
		res, err := tr.Translate(q.SQL)
		if err != nil {
			b.Fatal(err)
		}
		text := res.XQuery()
		b.Run(q.Name, func(b *testing.B) {
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

// BenchmarkEvalJoinPlan is the P6 experiment at benchmark scale: one
// translated equi-join executed by the naive nested-loop pipeline and by
// the planner's hash join over identical synthetic tables.
func BenchmarkEvalJoinPlan(b *testing.B) {
	for _, n := range []int{100, 500} {
		b.Run(fmt.Sprintf("size=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunEvalJoin([]int{n}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func externalNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("p%d", i+1)
	}
	return out
}

// BenchmarkStreamDelivery is the P9 experiment: time to first row and
// total latency of the pull-cursor path against materialize-then-decode,
// per result cardinality.
func BenchmarkStreamDelivery(b *testing.B) {
	for _, rows := range []int{100, 10000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunStreamSweep([]int{rows}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelScan is the P11 smoke axis: the demo join through the
// full facade at several degrees of parallelism, with morsels sized so
// even the 50-row demo scans fan out. CI's bench-smoke runs it once per
// worker count to prove the parallel path stays executable; the real
// speedup measurement is the P11 sweep (bench.RunEvalParallel).
func BenchmarkParallelScan(b *testing.B) {
	const sql = "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID"
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := Demo()
			p.ConfigureExec(ExecConfig{Workers: workers, MorselSize: 8, MinParallelItems: 2})
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
		app, engine := bench.DemoEngine(customers)
		p := New(app, engine)
		for _, st := range stmts {
			b.Run(fmt.Sprintf("%s/customers=%d/orders=%d", st.name, customers, 2*customers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, err := p.QueryMode(ModeXML, st.sql, st.arg)
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
