// Differential and safety nets for the morsel-parallel executor: every
// query the translator generates for the corpus must evaluate to a
// byte-identical sequence at every degree of parallelism, materialized and
// streamed; resource limits must hold exactly under speculation; FETCH
// FIRST, mid-stream Close, cancellation, and worker errors must all
// terminate promptly and surface the same way the serial path does.
//
// Like the planner differential, it lives outside package xqeval because
// it needs internal/demo and internal/translator.
package xqeval_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
	"repro/internal/xquery"
)

// parallelExec installs the test configuration on e: tiny morsels and
// threshold so even the demo dataset's scans fan out.
func parallelExec(e *xqeval.Engine, workers int) {
	xqeval.ForceFanOutForTest(e, workers, 8, 2)
}

// externalNames lists $p1…$pN for CompileAST's static check.
func externalNames(n int) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = "p" + strconv.Itoa(i+1)
	}
	return out
}

// drainCursor pulls a cursor dry, returning the concatenated items.
func drainCursor(cur *xqeval.Cursor) (xdm.Sequence, error) {
	defer cur.Close()
	var out xdm.Sequence
	for {
		chunk, err := cur.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, chunk...)
	}
}

// TestParallelMatchesSerialOnCorpus is the parallel executor's core
// contract: across the whole generated-query corpus, both result modes,
// materialized and streamed, workers∈{2,8} produce byte-identical output
// to workers=1 (the plain serial path), building what the serial run
// built, and again at 8 workers reusing what the serial run kept.
func TestParallelMatchesSerialOnCorpus(t *testing.T) {
	app, _, engine := demo.Setup(demo.DefaultSizes)
	defer xqeval.ForceFanOutForTest(engine, 0, 0, 0)
	ctx := context.Background()
	checked := 0
	for _, mode := range []translator.ResultMode{translator.ModeXML, translator.ModeText} {
		trans := translator.New(catalog.NewCache(app))
		trans.Options.Mode = mode
		for _, sql := range differentialCorpus() {
			res, err := trans.Translate(sql)
			if err != nil {
				t.Fatalf("mode %v: %q must translate: %v", mode, sql, err)
			}
			plan, err := engine.CompileAST(res.Query, externalNames(res.ParamCount))
			if err != nil {
				t.Fatalf("mode %v: %q must compile: %v", mode, sql, err)
			}
			ext := bindParams(res)

			parallelExec(engine, 1)
			serial, err := engine.EvalStream(ctx, plan, ext, nil).Drain()
			if err != nil {
				t.Fatalf("mode %v: %q must evaluate serially: %v", mode, sql, err)
			}
			want := xdm.MarshalSequence(serial)
			serialStream, err := drainCursor(engine.EvalStream(ctx, xqeval.FreshKept(plan), ext, nil))
			if err != nil {
				t.Fatalf("mode %v: %q must stream serially: %v", mode, sql, err)
			}
			wantStream := xdm.MarshalSequence(serialStream)

			// Each parallel evaluation runs on a copy with nothing kept, so
			// it builds what the serial one built; the last pass is plan
			// itself at 8 workers, reusing what the serial run kept.
			for _, workers := range []int{2, 8, 0} {
				materialized, streamedPlan := xqeval.FreshKept(plan), xqeval.FreshKept(plan)
				if workers == 0 {
					workers, materialized, streamedPlan = 8, plan, plan
				}
				parallelExec(engine, workers)
				got, err := engine.EvalStream(ctx, materialized, ext, nil).Drain()
				if err != nil {
					t.Fatalf("mode %v, workers %d: %q must evaluate: %v", mode, workers, sql, err)
				}
				if g := xdm.MarshalSequence(got); g != want {
					t.Fatalf("mode %v, workers %d: %q diverges from serial\ngot:  %s\nwant: %s", mode, workers, sql, g, want)
				}
				streamed, err := drainCursor(engine.EvalStream(ctx, streamedPlan, ext, nil))
				if err != nil {
					t.Fatalf("mode %v, workers %d: %q must stream: %v", mode, workers, sql, err)
				}
				if g := xdm.MarshalSequence(streamed); g != wantStream {
					t.Fatalf("mode %v, workers %d: %q streamed diverges from serial\ngot:  %s\nwant: %s", mode, workers, sql, g, wantStream)
				}
				checked++
			}
		}
	}
	if checked < 138 { // 23 distinct statements × 2 modes × 3 passes
		t.Fatalf("corpus shrank: only %d checks ran", checked)
	}
}

// parallelScanSetup builds an engine with one n-row source and a compiled
// single-scan query over it, configured for aggressive fan-out.
func parallelScanSetup(t testing.TB, n int) (*xqeval.Engine, *xqeval.Plan) {
	t.Helper()
	rows := make([]*xdm.Element, n)
	for i := 0; i < n; i++ {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		row.AddChild(xdm.NewTextElement("VAL", fmt.Sprintf("v%d", i%7)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	q, err := xquery.Parse(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
for $r in p:T()
return <ROW>{$r/ID}</ROW>`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallelExec(e, 8)
	return e, plan
}

// TestParallelLimits proves MaxRows/MaxTuples hold exactly under
// speculation: a worker's per-morsel trip is re-found serially at the
// merge point, so the limit trips with a typed error and never lets more
// than the cap be delivered.
func TestParallelLimits(t *testing.T) {
	ctx := context.Background()

	e, plan := parallelScanSetup(t, 200)
	e.SetLimits(xqeval.Limits{MaxRows: 17})
	if _, err := e.EvalStream(ctx, plan, nil, nil).Drain(); err == nil {
		t.Fatal("MaxRows=17 over 200 rows must error")
	} else {
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) || qe.Kind != aqerr.KindResourceLimit {
			t.Fatalf("limit error not typed KindResourceLimit: %v", err)
		}
	}
	delivered, err := drainCursor(e.EvalStream(ctx, plan, nil, nil))
	if err == nil {
		t.Fatal("streamed MaxRows=17 over 200 rows must error")
	}
	if len(delivered) > 17 {
		t.Fatalf("stream delivered %d rows past MaxRows=17", len(delivered))
	}

	e2, plan2 := parallelScanSetup(t, 200)
	e2.SetLimits(xqeval.Limits{MaxTuples: 50})
	if _, err := e2.EvalStream(ctx, plan2, nil, nil).Drain(); err == nil {
		t.Fatal("MaxTuples=50 over 200 tuples must error")
	} else {
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) || qe.Kind != aqerr.KindResourceLimit {
			t.Fatalf("tuple-limit error not typed KindResourceLimit: %v", err)
		}
	}
}

// TestParallelFetchFirstShortCircuit streams a FETCH FIRST-shaped query
// (fn:subsequence, the translator's spelling) under parallel execution:
// exactly the first k rows come back, identical to serial, and the
// limiter's short-circuit tears the pool down rather than scanning out
// the source.
func TestParallelFetchFirstShortCircuit(t *testing.T) {
	ctx := context.Background()
	rows := make([]*xdm.Element, 5000)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	q, err := xquery.Parse(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
fn:subsequence(for $r in p:T() return <ROW>{$r/ID}</ROW>, 1, 5)`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	parallelExec(e, 1)
	serial, err := drainCursor(e.EvalStream(ctx, plan, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	parallelExec(e, 8)
	par, err := drainCursor(e.EvalStream(ctx, plan, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != 5 {
		t.Fatalf("FETCH FIRST 5 delivered %d rows", len(par))
	}
	if got, want := xdm.MarshalSequence(par), xdm.MarshalSequence(serial); got != want {
		t.Fatalf("parallel FETCH FIRST diverges from serial\ngot:  %s\nwant: %s", got, want)
	}
}

// parallelStreamSetup builds an engine whose compiled query streams rows
// through the translator's RECORDSET shape (so the cursor pulls the
// parallel executor through the real row-stream path), with the FLWOR body
// wrapped by extra XQuery supplied via wrap (e.g. a FETCH FIRST
// fn:subsequence).
func parallelStreamSetup(t testing.TB, n int, wrapOpen, wrapClose string) (*xqeval.Engine, *xqeval.Plan) {
	t.Helper()
	rows := make([]*xdm.Element, n)
	for i := 0; i < n; i++ {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	q, err := xquery.Parse(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
<RECORDSET>{` + wrapOpen + `for $r in p:T() return <ROW>{$r/ID}</ROW>` + wrapClose + `}</RECORDSET>`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallelExec(e, 8)
	return e, plan
}

// TestParallelFetchFirstUnderRowLimit pins the limits × FETCH FIRST
// interaction: with MaxRows strictly between the fetch limit and the
// speculation ceiling, workers speculate past MaxRows in total while the
// merge point never reaches it. Serial execution succeeds (the limiter
// stops the pipeline before MaxRows), so parallel execution must too —
// only the merge point's serial counters decide a trip.
func TestParallelFetchFirstUnderRowLimit(t *testing.T) {
	ctx := context.Background()
	rows := make([]*xdm.Element, 5000)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	// Per-row latency lets the speculating workers charge well past MaxRows
	// before the merge point has flushed the fetch limit's 20 rows.
	e.RegisterContext("ld:ParTest", "SLOW", func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		time.Sleep(20 * time.Microsecond)
		return args[0], nil
	})
	q, err := xquery.Parse(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
<RECORDSET>{fn:subsequence(for $r in p:T() return <ROW>{p:SLOW($r/ID)}</ROW>, 1, 20)}</RECORDSET>`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetLimits(xqeval.Limits{MaxRows: 40})

	parallelExec(e, 1)
	serial, err := drainCursor(e.EvalStream(ctx, plan, nil, nil))
	if err != nil {
		t.Fatalf("serial FETCH FIRST under MaxRows must succeed: %v", err)
	}
	for i := 0; i < 20; i++ { // the race is scheduling-dependent; iterate
		parallelExec(e, 8)
		par, err := drainCursor(e.EvalStream(ctx, plan, nil, nil))
		if err != nil {
			t.Fatalf("iter %d: parallel FETCH FIRST under MaxRows must succeed like serial: %v", i, err)
		}
		if got, want := xdm.MarshalSequence(par), xdm.MarshalSequence(serial); got != want {
			t.Fatalf("iter %d: parallel diverges from serial\ngot:  %s\nwant: %s", i, got, want)
		}
	}
}

// TestParallelRowLimitPrefixMatchesSerial trips MaxRows for real and
// checks full serial fidelity: the streamed prefix delivered before the
// error and the typed error itself must both match the serial run —
// morsels whose charges straddle the limit are re-run against the
// authoritative serial counters, so the trip lands on the exact serial
// row.
func TestParallelRowLimitPrefixMatchesSerial(t *testing.T) {
	ctx := context.Background()
	e, plan := parallelStreamSetup(t, 200, "", "")
	e.SetLimits(xqeval.Limits{MaxRows: 17})

	parallelExec(e, 1)
	serialPrefix, serr := drainCursor(e.EvalStream(ctx, plan, nil, nil))
	if serr == nil {
		t.Fatal("serial MaxRows=17 over 200 rows must error")
	}
	for i := 0; i < 20; i++ {
		parallelExec(e, 8)
		parPrefix, perr := drainCursor(e.EvalStream(ctx, plan, nil, nil))
		if perr == nil {
			t.Fatalf("iter %d: parallel MaxRows=17 must error like serial", i)
		}
		var qe *aqerr.QueryError
		if !errors.As(perr, &qe) || qe.Kind != aqerr.KindResourceLimit {
			t.Fatalf("iter %d: limit error not typed KindResourceLimit: %v", i, perr)
		}
		if got, want := xdm.MarshalSequence(parPrefix), xdm.MarshalSequence(serialPrefix); got != want {
			t.Fatalf("iter %d: pre-error prefix diverges from serial\ngot:  %s\nwant: %s", i, got, want)
		}
	}
}

// TestParallelErrorPrefixMatchesSerial streams a query whose source
// rejects one row deep in the scan: the rows delivered before the error,
// the error itself, and the tuple count must match the serial run even
// though the failing worker cancels its siblings mid-morsel (the merge
// point re-runs poisoned morsels serially instead of discarding them).
func TestParallelErrorPrefixMatchesSerial(t *testing.T) {
	ctx := context.Background()
	rows := make([]*xdm.Element, 500)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	e.RegisterContext("ld:ParTest", "CHECKED", func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args) == 1 && len(args[0]) == 1 {
			if el, ok := args[0][0].(*xdm.Element); ok && el.StringValue() == "137" {
				return nil, errors.New("checked source rejected row 137")
			}
		}
		return args[0], nil
	})
	// The second query adds a filter with a hoisted operand (xs:integer("0")
	// is cached in the FLWOR's shared state by the first tuple to reach it):
	// the re-run of the poisoned morsel reads that cache and must find a
	// value there, never a sibling's cancellation.
	for _, where := range []string{"", `where ($r/ID >= xs:integer("0")) `} {
		q, err := xquery.Parse(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
<RECORDSET>{for $r in p:T() ` + where + `return <ROW>{p:CHECKED($r/ID)}</ROW>}</RECORDSET>`)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.CompileAST(q, nil)
		if err != nil {
			t.Fatal(err)
		}

		parallelExec(e, 1)
		cur := e.EvalStream(ctx, plan, nil, nil)
		serialPrefix, serr := drainCursor(cur)
		if serr == nil {
			t.Fatal("serial run must surface the source error")
		}
		_, serialTuples := cur.Stats()
		for i := 0; i < 10; i++ {
			parallelExec(e, 8)
			cur := e.EvalStream(ctx, plan, nil, nil)
			parPrefix, perr := drainCursor(cur)
			if perr == nil || !strings.Contains(perr.Error(), "rejected row 137") {
				t.Fatalf("%siter %d: parallel surfaced the wrong error: %v (serial: %v)", where, i, perr, serr)
			}
			if got, want := xdm.MarshalSequence(parPrefix), xdm.MarshalSequence(serialPrefix); got != want {
				t.Fatalf("%siter %d: pre-error prefix diverges from serial\ngot:  %s\nwant: %s", where, i, got, want)
			}
			// The merge stops at the error after re-running the morsels the
			// failing worker's cancellation truncated; the tuples it
			// charged on the way are the serial run's.
			if _, tuples := cur.Stats(); tuples != serialTuples {
				t.Fatalf("%siter %d: %d tuples charged; serial %d", where, i, tuples, serialTuples)
			}
		}
	}
}

// TestParallelSpeculationBounded trips MaxTuples = n over a scan whose
// per-item work a data service counts. Workers charge each morsel from
// zero, so a limit below the morsel size trips inside every claimed morsel
// and one above it trips only at the merge point; either way the
// evaluation ends as the serial one does — error, row prefix, tuple count,
// exactly one ResourceLimitHits — after at most the token window's
// morsels, each cut off at the limit, plus the serial re-run. A MaxDepth
// one below the deepest scope trips on the first row of every morsel, and
// must be counted once too.
func TestParallelSpeculationBounded(t *testing.T) {
	ctx := context.Background()
	rows := make([]*xdm.Element, 500)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	var calls atomic.Int64
	e.RegisterContext("ld:ParTest", "WORK", func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		calls.Add(1)
		return args[0], nil
	})
	q, err := xquery.Parse(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
<RECORDSET>{for $r in p:T() let $v := p:WORK($r/ID) return <ROW>{$v}</ROW>}</RECORDSET>`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	depth := int64(1) // the smallest MaxDepth the query runs under
	for ; ; depth++ {
		e.SetLimits(xqeval.Limits{MaxDepth: depth})
		if _, err := e.EvalStream(ctx, plan, nil, nil).Drain(); err == nil {
			break
		}
	}
	for _, c := range []struct {
		lim xqeval.Limits
		n   int64
	}{{xqeval.Limits{MaxTuples: 5}, 5}, {xqeval.Limits{MaxTuples: 50}, 50}, {xqeval.Limits{MaxDepth: depth - 1}, 1}} {
		e.SetLimits(c.lim)
		var serialPrefix string
		var serialErr error
		var serialTuples int64
		for _, workers := range []int{1, 2, 8} {
			parallelExec(e, workers)
			calls.Store(0)
			hits := e.Stats().ResourceLimitHits
			cur := e.EvalStream(ctx, plan, nil, nil)
			prefix, err := drainCursor(cur)
			_, tuples := cur.Stats()
			if got := e.Stats().ResourceLimitHits - hits; got != 1 {
				t.Fatalf("%+v, workers %d: ResourceLimitHits grew by %d, want 1", c.lim, workers, got)
			}
			if workers == 1 {
				if err == nil {
					t.Fatalf("serial %+v over 500 rows must trip", c.lim)
				}
				serialPrefix, serialErr, serialTuples = xdm.MarshalSequence(prefix), err, tuples
				continue
			}
			if err == nil || err.Error() != serialErr.Error() || xdm.MarshalSequence(prefix) != serialPrefix || tuples != serialTuples {
				t.Fatalf("%+v, workers %d: %d rows, %d tuples, then %v; serial %d tuples, then %v",
					c.lim, workers, len(prefix), tuples, err, serialTuples, serialErr)
			}
			if bound := int64(2*workers+1) * c.n; calls.Load() > bound {
				t.Fatalf("%+v, workers %d: %d source calls, bound %d", c.lim, workers, calls.Load(), bound)
			}
		}
	}
}

// TestParallelTupleAccountingMatchesSerial checks the merge point refunds
// speculative charges: after a FETCH FIRST short-circuit, the evaluation's
// folded-back tuple counter (surfaced via Cursor.Stats) must equal the
// serial run's exactly, not include the window of morsels workers
// processed past the stop.
//
// Text rows that are not one FLWOR are encoded from their RECORD elements
// on the merging goroutine, in the cursor's emit: those $tokenQuery tuple
// and token row charges are serial work too, and must survive the merge —
// and count against MaxTuples at the row serial execution trips on.
func TestParallelTupleAccountingMatchesSerial(t *testing.T) {
	ctx := context.Background()
	e, plan := parallelStreamSetup(t, 5000, "fn:subsequence(", ", 1, 20)")
	for _, recordSource := range []struct{ name, rows string }{
		{"record-source text, FETCH FIRST", "fn:subsequence((for $r in p:T() return <RECORD><ID>{fn:data($r/ID)}</ID></RECORD>, ()), 1, 20)"},
		{"record-source text", "(for $r in p:T() where $r/ID mod 3 = 0 return <RECORD><ID>{fn:data($r/ID)}</ID></RECORD>, ())"},
	} {
		q, err := xquery.Parse(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
fn:string-join(let $actualQuery := <RECORDSET>{` + recordSource.rows + `}</RECORDSET>
for $tokenQuery in $actualQuery/RECORD
return (">", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/ID))), "&amp;null;")), "")`)
		if err != nil {
			t.Fatal(err)
		}
		tplan, err := e.CompileAST(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := tplan.Stream.Describe(); !strings.Contains(d, ", reads RECORD elements") {
			t.Fatalf("%s: want a record-source text plan, got %s", recordSource.name, d)
		}
		serialRows, serialTuples, serr := drainAt(e, tplan, 1)
		if serr != nil {
			t.Fatal(serr)
		}
		for _, workers := range []int{2, 8} {
			rows, tuples, err := drainAt(e, tplan, workers)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(rows, "") != strings.Join(serialRows, "") || tuples != serialTuples {
				t.Fatalf("%s, workers %d: %d rows, %d tuples; serial %d rows, %d tuples", recordSource.name, workers, len(rows), tuples, len(serialRows), serialTuples)
			}
		}
		// A tuple cap between the worker-side and the full count trips in
		// both, after the same rows.
		e.SetLimits(xqeval.Limits{MaxTuples: serialTuples * 3 / 4})
		serialRows, _, serr = drainAt(e, tplan, 1)
		for _, workers := range []int{2, 8} {
			rows, _, err := drainAt(e, tplan, workers)
			if serr == nil || err == nil || err.Error() != serr.Error() || strings.Join(rows, "") != strings.Join(serialRows, "") {
				t.Fatalf("%s, workers %d, MaxTuples %d: %d rows then %v; serial %d rows then %v",
					recordSource.name, workers, serialTuples*3/4, len(rows), err, len(serialRows), serr)
			}
		}
		e.SetLimits(xqeval.Limits{})
	}

	parallelExec(e, 1)
	cur := e.EvalStream(ctx, plan, nil, nil)
	if _, err := drainCursor(cur); err != nil {
		t.Fatal(err)
	}
	_, serialTuples := cur.Stats()

	parallelExec(e, 8)
	pcur := e.EvalStream(ctx, plan, nil, nil)
	if _, err := drainCursor(pcur); err != nil {
		t.Fatal(err)
	}
	if _, parTuples := pcur.Stats(); parTuples != serialTuples {
		t.Fatalf("parallel tuple accounting diverges after FETCH FIRST: parallel=%d serial=%d (speculative charges not refunded)", parTuples, serialTuples)
	}
}

// TestBarrierAfterFanOut pins the re-home of barrier input collected from
// morsel workers: the tuples a fanned-out segment hands to its ORDER BY or
// GROUP BY must charge everything after the barrier — the barrier's keys,
// a later for, the return clause — to the caller's counters and limits,
// not to a finished worker's. So at 2 and 8 workers the cursor's step and
// tuple counts equal the serial ones, and a MaxRows limit that trips after
// the barrier trips at the same row with the same error.
func TestBarrierAfterFanOut(t *testing.T) {
	rows := make([]*xdm.Element, 5000)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		row.AddChild(xdm.NewTextElement("VAL", fmt.Sprintf("v%d", i%7)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	type outcome struct {
		rows          string
		steps, tuples int64
		err           error
	}
	run := func(plan *xqeval.Plan, workers int) outcome {
		parallelExec(e, workers)
		cur := e.EvalStream(context.Background(), plan, nil, nil)
		out, err := drainCursor(cur)
		steps, tuples := cur.Stats()
		return outcome{xdm.MarshalSequence(out), steps, tuples, err}
	}
	for _, c := range []struct{ name, flwor string }{
		{"order by", `for $r in p:T() where $r/ID mod 3 != 0 order by $r/VAL descending for $i in (1, 2) return <ROW>{$r/ID}{$i}</ROW>`},
		{"group by", `for $r in p:T() where $r/ID mod 2 = 0 group $r as $g by $r/VAL as $k for $m in $g where $m/ID mod 5 = 0 return <ROW>{$k}{$m/ID}</ROW>`},
	} {
		q, err := xquery.Parse(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
<RECORDSET>{` + c.flwor + `}</RECORDSET>`)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.CompileAST(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.SetLimits(xqeval.Limits{})
		serial := run(plan, 1)
		if serial.err != nil {
			t.Fatalf("%s: %v", c.name, serial.err)
		}
		n := int64(strings.Count(serial.rows, "<ROW>"))
		for _, workers := range []int{2, 8} {
			morsels := e.Stats().MorselsProcessed
			got := run(plan, workers)
			if e.Stats().MorselsProcessed == morsels {
				t.Fatalf("%s, workers %d: the scan before the barrier did not fan out", c.name, workers)
			}
			if got != serial {
				t.Fatalf("%s, workers %d: %d steps, %d tuples, error %v; serial %d steps, %d tuples (rows equal: %v)",
					c.name, workers, got.steps, got.tuples, got.err, serial.steps, serial.tuples, got.rows == serial.rows)
			}
		}
		// Rows are charged only by the return clause, after the barrier.
		e.SetLimits(xqeval.Limits{MaxRows: n / 2})
		serial = run(plan, 1)
		var qe *aqerr.QueryError
		if !errors.As(serial.err, &qe) || qe.Kind != aqerr.KindResourceLimit {
			t.Fatalf("%s, MaxRows %d of %d: serial error %v, want a resource limit", c.name, n/2, n, serial.err)
		}
		for _, workers := range []int{2, 8} {
			got := run(plan, workers)
			if got.rows != serial.rows || fmt.Sprint(got.err) != fmt.Sprint(serial.err) || got.steps != serial.steps || got.tuples != serial.tuples {
				t.Fatalf("%s, workers %d, MaxRows %d: %d rows then %v (%d steps, %d tuples); serial %d rows then %v (%d steps, %d tuples)",
					c.name, workers, n/2, strings.Count(got.rows, "<ROW>"), got.err, got.steps, got.tuples,
					strings.Count(serial.rows, "<ROW>"), serial.err, serial.steps, serial.tuples)
			}
		}
	}
	e.SetLimits(xqeval.Limits{})
}

// drainAt streams plan at the test configuration with the given workers:
// one string per row, the tuple count, the error the stream ended with.
func drainAt(e *xqeval.Engine, plan *xqeval.Plan, workers int) ([]string, int64, error) {
	parallelExec(e, workers)
	rows, tuples, err := drainRows(e.EvalStream(context.Background(), plan, nil, nil))
	return rows, tuples, err
}

// TestParallelCancellationNoHang is the deadlock regression for external
// cancellation: when the context dies while some workers sit between
// morsels, they can exit with later morsels never claimed, and a merge
// loop blocking solely on those morsels' done channels would hang forever.
// Cancellation is raced against the scan repeatedly; every evaluation must
// return within the watchdog.
func TestParallelCancellationNoHang(t *testing.T) {
	rows := make([]*xdm.Element, 2000)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	e.RegisterContext("ld:ParTest", "SLOW", func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Microsecond):
		}
		return args[0], nil
	})
	q, err := xquery.Parse(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
for $r in p:T()
return p:SLOW($r/ID)`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	xqeval.ForceFanOutForTest(e, 8, 4, 2)

	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		// Vary the cancellation point across the scan so some iterations
		// catch workers idle between morsels.
		timer := time.AfterFunc(time.Duration(i)*200*time.Microsecond, cancel)
		ret := make(chan error, 1)
		go func() {
			_, err := e.EvalStream(ctx, plan, nil, nil).Drain()
			ret <- err
		}()
		select {
		case err := <-ret:
			if err == nil {
				t.Fatalf("iter %d: cancelled evaluation must error", i)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("iter %d: cancelled parallel evaluation hung", i)
		}
		timer.Stop()
		cancel()
	}
}

// TestParallelMidStreamClose closes a parallel streaming cursor with most
// of the scan still pending: Close must cancel the workers, wait for the
// producer, and return with no goroutine left running (the race detector
// and -count=1 goroutine accounting in CI catch leaks).
func TestParallelMidStreamClose(t *testing.T) {
	e, plan := parallelScanSetup(t, 2000)
	cur := e.EvalStream(context.Background(), plan, nil, nil)
	for i := 0; i < 3; i++ {
		if _, err := cur.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := cur.Next(); err == nil {
		t.Fatal("Next after Close must not yield rows")
	}
}

// TestParallelCancellation cancels the evaluation context mid-flight: the
// pool must stop promptly (well before the serial cost of the remaining
// rows) and surface an error.
func TestParallelCancellation(t *testing.T) {
	rows := make([]*xdm.Element, 1000)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	e.RegisterContext("ld:ParTest", "SLOW", func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		return args[0], nil
	})
	q, err := xquery.Parse(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
for $r in p:T()
return p:SLOW($r/ID)`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallelExec(e, 8)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := e.EvalStream(ctx, plan, nil, nil).Drain(); err == nil {
		t.Fatal("cancelled evaluation must error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v; workers did not stop promptly", elapsed)
	}
}

// TestParallelWorkerErrorSurfaces injects a per-row failure deep in one
// morsel: the evaluation must surface that error (not a sibling's
// cancellation), exactly as the serial path does.
func TestParallelWorkerErrorSurfaces(t *testing.T) {
	rows := make([]*xdm.Element, 500)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	e.RegisterContext("ld:ParTest", "CHECKED", func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args) == 1 && len(args[0]) == 1 {
			if el, ok := args[0][0].(*xdm.Element); ok && el.StringValue() == "137" {
				return nil, errors.New("checked source rejected row 137")
			}
		}
		return args[0], nil
	})
	q, err := xquery.Parse(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
for $r in p:T()
return p:CHECKED($r/ID)`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	parallelExec(e, 1)
	_, serr := e.EvalStream(context.Background(), plan, nil, nil).Drain()
	parallelExec(e, 8)
	_, perr := e.EvalStream(context.Background(), plan, nil, nil).Drain()
	if serr == nil || perr == nil {
		t.Fatalf("both paths must fail: serial=%v parallel=%v", serr, perr)
	}
	if !strings.Contains(perr.Error(), "rejected row 137") {
		t.Fatalf("parallel surfaced the wrong error: %v (serial: %v)", perr, serr)
	}
}

// FuzzParallelDifferential extends the plan fuzzer across the parallelism
// axis: any SQL the translator accepts is evaluated serially and at 8
// workers over the same compiled plan; divergence in values, or in error
// presence, fails. (Parallel execution has no §2.3.4 latitude against its
// own serial run — both execute the identical eager plan.)
func FuzzParallelDifferential(f *testing.F) {
	for _, s := range append(differentialCorpus(), correlatedSeeds...) {
		f.Add(s)
	}
	app, _, engine := demo.Setup(demo.Sizes{Customers: 8, PaymentsPerCustomer: 2, Orders: 10, ItemsPerOrder: 2})
	trans := translator.New(catalog.NewCache(app))
	textTrans := translator.New(catalog.NewCache(app))
	textTrans.Options.Mode = translator.ModeText
	f.Fuzz(func(t *testing.T, sql string) {
		res, err := trans.Translate(sql)
		if err != nil {
			return
		}
		if strings.Contains(res.XQuery(), "fn:current-") {
			return // nondeterministic between the two evaluations
		}
		plan, err := engine.CompileAST(res.Query, externalNames(res.ParamCount))
		if err != nil {
			return
		}
		ext := bindParams(res)
		xqeval.ForceFanOutForTest(engine, 1, 4, 2)
		serial, serr := engine.EvalStream(context.Background(), plan, ext, nil).Drain()
		// The parallel run builds on a copy with nothing kept, then reuses
		// on plan what the serial run kept.
		xqeval.ForceFanOutForTest(engine, 8, 4, 2)
		for _, p := range []*xqeval.Plan{xqeval.FreshKept(plan), plan} {
			par, perr := engine.EvalStream(context.Background(), p, ext, nil).Drain()
			if (serr == nil) != (perr == nil) {
				t.Fatalf("%q: error-presence divergence\nserial:   %v\nparallel: %v", sql, serr, perr)
			}
			if serr != nil {
				return
			}
			if got, want := xdm.MarshalSequence(par), xdm.MarshalSequence(serial); got != want {
				t.Fatalf("%q: result divergence\nparallel: %s\nserial:   %s", sql, got, want)
			}
		}
		// The same statement in text mode, streamed at 8 workers — through
		// the row program when the shape allows — against the naive stream,
		// which never fuses.
		tres, err := textTrans.Translate(sql)
		if err != nil {
			return
		}
		tplan, err := engine.CompileAST(tres.Query, externalNames(tres.ParamCount))
		if err != nil {
			return
		}
		naive, _, nerr := drainRows(engine.EvalStreamNaive(context.Background(), tres.Query, ext, nil))
		streamed, _, serr := drainRows(engine.EvalStream(context.Background(), tplan, ext, nil))
		if nerr != nil || serr != nil {
			return // planned and naive may differ in which dynamic errors surface (§2.3.4)
		}
		if got, want := strings.Join(streamed, ""), strings.Join(naive, ""); got != want {
			t.Fatalf("%q: text stream diverges from naive\nplanned: %s\nnaive:   %s", sql, got, want)
		}
	})
}
