// Nets for the §4 text encoder (rowprog.go). The naive evaluator never
// composes the row program with the RECORD constructor, so it is the
// oracle: for every statement below, rows streamed from a compiled plan —
// serial and at 2 and 4 morsel workers, from tuples or from RECORD
// elements — must be byte-identical, row for row, to EvalStreamNaive, and
// their concatenation to the string EvalNaive's fn:string-join
// returns. Resource limits must trip at the same row with the same typed
// error and the same tuple count either way.
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
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
	"repro/internal/xquery"
)

// edgeSetup is a one-table application whose rows sit on every edge of the
// text encoding: NULL in each position, an empty string in a non-nullable
// column, the markup characters and the NULL token as data, a repeated
// source element (a multi-atom value) and a present-but-empty nullable one.
func edgeSetup() (*catalog.Application, *xqeval.Engine) {
	app := &catalog.Application{Name: "EdgeApp"}
	app.AddDSFile(&catalog.DSFile{Path: "Edge", Name: "E", Functions: []*catalog.Function{
		catalog.NewRelationalImport("Edge", "E", []catalog.Column{
			{Name: "K", Type: catalog.SQLInteger},
			{Name: "S", Type: catalog.SQLVarchar, Precision: 32},
			{Name: "A", Type: catalog.SQLVarchar, Nullable: true, Precision: 32},
			{Name: "B", Type: catalog.SQLVarchar, Nullable: true, Precision: 32},
			{Name: "D", Type: catalog.SQLDecimal, Nullable: true, Precision: 10, Scale: 2},
		}),
	}})
	row := func(cells ...string) *xdm.Element {
		r := xdm.NewElement("E")
		for i := 0; i+1 < len(cells); i += 2 {
			r.AddChild(xdm.NewTextElement(cells[i], cells[i+1]))
		}
		return r
	}
	rows := []*xdm.Element{
		row("K", "1", "S", "plain", "A", "a1", "B", "b1", "D", "1.50"),
		row("K", "2", "S", "no A", "B", "b2", "D", "2.25"),
		row("K", "3", "S", "no B, no D", "A", "a3"),
		row("K", "4", "S", "all NULL"),
		row("K", "5", "S", "", "A", "empty S", "B", "b5", "D", "5.00"),
		row("K", "6", "S", "<tag> & </tag>", "A", "&null;", "B", "a>b<c\rd", "D", "6.00"),
		row("K", "7", "S", "two As", "A", "first", "A", "second", "B", "b7"),
		row("K", "8", "S", "empty A", "A", "", "B", "&amp;", "D", "-8.10"),
		row("S", "no K", "A", "a9", "D", "9.99"),
		row("K", "10", "S", "café € <é>", "A", "ü", "B", "x", "D", "10.00"),
	}
	for i := 11; i <= 30; i++ {
		cells := []string{"K", strconv.Itoa(i), "S", "row " + strconv.Itoa(i)}
		if i%3 != 0 {
			cells = append(cells, "A", "a&"+strconv.Itoa(i))
		}
		if i%4 != 0 {
			cells = append(cells, "D", strconv.Itoa(i)+".25")
		}
		rows = append(rows, row(cells...))
	}
	e := xqeval.New()
	e.RegisterRows("ld:Edge/E", "E", rows)
	return app, e
}

// handWrapped is a text-wrapper query written by hand around a RECORD whose
// columns no SQL produces: a multi-atom sequence, element- and
// document-free node content, a guarded computed value.
const handWrapped = `import schema namespace e = "ld:Edge/E" at "E.xsd";
fn:string-join(
  let $actualQuery := <RECORDSET>{
    for $r in e:E()
    where ($r/K > xs:integer($p1))
    return <RECORD>
      <M>{(fn:data($r/K), 7, "x&y", fn:data($r/B))}</M>
      <N>{($r/S, $r/A, "tail")}</N>
      { if (fn:empty(fn:upper-case(fn:data($r/B)))) then () else <U>{fn:upper-case(fn:data($r/B))}</U> }
      <Z>{()}</Z>
    </RECORD>
  }</RECORDSET>
  for $tokenQuery in $actualQuery/RECORD
  return (">", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/M))), "&amp;null;"),
          "<", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/N))), "&amp;null;"),
          "<", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/U))), "&amp;null;"),
          "<", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/Z))), "&amp;null;"))
, "")`

// recordSourced is a hand-written wrapper whose rows are not one FLWOR, so
// its row program reads RECORD elements: RECORDs of copied source children
// (row K=7 has two As, serialize-atomic's singleton error), then a data
// service's documents, whose RECORDs are spliced, and the elements and
// atomics the /RECORD step drops.
const recordSourced = `import schema namespace e = "ld:Edge/E" at "E.xsd";
import schema namespace d = "ld:Edge/Docs" at "Docs.xsd";
fn:string-join(
  let $actualQuery := <RECORDSET>{(
    for $r in e:E()
    where ($r/K > xs:integer($p1))
    return <RECORD><K>{fn:data($r/K)}</K>{$r/A}</RECORD>,
    for $x in d:D() return $x
  )}</RECORDSET>
  for $tokenQuery in $actualQuery/RECORD
  return (">", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/K))), "&amp;null;"),
          "<", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/A))), "&amp;null;"))
, "")`

// repeatedCtor builds a RECORD naming one column twice, both copies
// present: the tokens fail on it, so the constructor must not fuse.
const repeatedCtor = `import schema namespace e = "ld:Edge/E" at "E.xsd";
fn:string-join(
  let $actualQuery := <RECORDSET>{
    for $r in e:E() return <RECORD><S>{fn:data($r/S)}</S><S>{fn:data($r/K)}</S></RECORD>
  }</RECORDSET>
  for $tokenQuery in $actualQuery/RECORD
  return (">", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/S))), "&amp;null;"),
          "<", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/S))), "&amp;null;"))
, "")`

// unchained is a wrapper whose tokens are not the serialize/escape/if-empty
// chain (a computed delimiter, a predicate on the path): no row program
// compiles, and the body streams materialized.
const unchained = `import schema namespace e = "ld:Edge/E" at "E.xsd";
fn:string-join(
  let $actualQuery := <RECORDSET>{
    for $r in e:E() return <RECORD><K>{fn:data($r/K)}</K><S>{fn:data($r/S)}</S></RECORD>
  }</RECORDSET>
  for $tokenQuery in $actualQuery/RECORD
  return (fn:concat(">", ""), fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/K))), "&amp;null;"),
          "<", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/S[1]))), "&amp;null;"))
, "")`

// edgeDocs is what recordSourced's d:D() returns.
func edgeDocs() xdm.Sequence {
	rec := func(cells ...string) *xdm.Element {
		r := xdm.NewElement("RECORD")
		for i := 0; i+1 < len(cells); i += 2 {
			r.AddChild(xdm.NewTextElement(cells[i], cells[i+1]))
		}
		return r
	}
	other := xdm.NewElement("OTHER")
	other.AddChild(xdm.NewTextElement("K", "dropped"))
	return xdm.Sequence{
		&xdm.Document{Children: []xdm.Node{rec("K", "d1", "A", "x<y & z"), xdm.NewElement("NOTE"), rec("A", "no K")}},
		other, xdm.Integer(42), xdm.String("dropped"),
		&xdm.Document{},
		rec("K", "", "B", "no A"),
	}
}

// fusedCase is one statement of the differential.
type fusedCase struct {
	name   string
	engine *xqeval.Engine
	query  *xquery.Query
	ext    map[string]xdm.Sequence
	params int
	// fused is whether the row program runs on the row FLWOR's tuples;
	// every other text plan's program reads RECORD elements. materialized
	// marks tokens no program compiles from.
	fused, materialized bool
	// fail, when set, is part of the error every path must fail with.
	fail string
}

func fusedCases(t testing.TB) []fusedCase {
	t.Helper()
	var cases []fusedCase

	// The translator's golden corpus over the demo data, text mode. Set
	// operations and DISTINCT sit behind fn-bea:distinct-rows / rows-except
	// and read RECORD elements.
	app, _, engine := demo.Setup(demo.DefaultSizes)
	trans := translator.New(catalog.NewCache(app))
	trans.Options.Mode = translator.ModeText
	for _, sql := range differentialCorpus() {
		res, err := trans.Translate(sql)
		if err != nil {
			t.Fatalf("%q must translate: %v", sql, err)
		}
		up := strings.ToUpper(sql)
		cases = append(cases, fusedCase{name: sql, engine: engine, query: res.Query, ext: bindParams(res), params: res.ParamCount,
			fused: !strings.Contains(up, "DISTINCT CITY FROM") && !strings.Contains(up, " UNION ") && !strings.Contains(up, " EXCEPT ")})
	}

	edgeApp, edgeEngine := edgeSetup()
	etrans := translator.New(catalog.NewCache(edgeApp))
	etrans.Options.Mode = translator.ModeText
	for _, c := range []struct {
		sql   string
		fused bool
	}{
		{"SELECT K, S, A, B, D FROM E", true},
		{"SELECT A, B, D, K FROM E WHERE K > ?", true},
		{"SELECT D, A FROM E WHERE A IS NOT NULL", true},
		{"SELECT * FROM E FETCH FIRST 7 ROWS ONLY", true},
		{"SELECT S, K FROM E WHERE K > ? ORDER BY S DESC FETCH FIRST 12 ROWS ONLY", true},
		{"SELECT K, S FROM E ORDER BY S DESC, K", true},
		{"SELECT A, COUNT(*), MAX(D) FROM E GROUP BY A", true},
		{"SELECT K + 1, D * 2, UPPER(B), S || B FROM E", true},
		{"SELECT K, (SELECT MAX(D) FROM E) FROM E WHERE K > ?", false}, // guarded nested query
		{"SELECT K, K FROM E", true},                                   // duplicate output names
		{"SELECT K, S FROM E FETCH FIRST 0 ROWS ONLY", true},
	} {
		res, err := etrans.Translate(c.sql)
		if err != nil {
			t.Fatalf("%q must translate: %v", c.sql, err)
		}
		ext := map[string]xdm.Sequence{}
		for i := 0; i < res.ParamCount; i++ {
			ext["p"+strconv.Itoa(i+1)] = xdm.SequenceOf(xdm.Integer(2))
		}
		cases = append(cases, fusedCase{name: c.sql, engine: edgeEngine, query: res.Query, ext: ext, params: res.ParamCount, fused: c.fused})
	}

	edgeEngine.Register("ld:Edge/Docs", "D", func([]xdm.Sequence) (xdm.Sequence, error) { return edgeDocs(), nil })
	p := func(n int) map[string]xdm.Sequence {
		return map[string]xdm.Sequence{"p1": xdm.SequenceOf(xdm.Integer(n))}
	}
	for _, h := range []fusedCase{
		{name: "hand-written multi-atom and node-valued columns", query: parseQuery(t, handWrapped), ext: p(0), params: 1, fused: true},
		{name: "hand-written RECORDs, documents and dropped items", query: parseQuery(t, recordSourced), ext: p(7), params: 1},
		{name: "hand-written RECORD repeating a column", query: parseQuery(t, recordSourced), ext: p(0), params: 1,
			fail: "fn-bea:serialize-atomic argument: xdm: expected singleton, got sequence of 2 items"},
		{name: "hand-written RECORD constructor repeating a column", query: parseQuery(t, repeatedCtor),
			fail: "fn-bea:serialize-atomic argument: xdm: expected singleton, got sequence of 2 items"},
		{name: "hand-written tokens outside the chain", query: parseQuery(t, unchained), materialized: true},
	} {
		h.engine = edgeEngine
		cases = append(cases, h)
	}
	return cases
}

func parseQuery(t testing.TB, src string) *xquery.Query {
	t.Helper()
	q, err := xquery.Parse(src)
	if err != nil {
		t.Fatalf("hand-written wrapper must parse: %v", err)
	}
	return q
}

// rowText is what fn:string-join makes of one chunk: its items' string
// values, concatenated.
func rowText(chunk xdm.Sequence) string {
	var b strings.Builder
	for _, it := range chunk {
		b.WriteString(xdm.StringValue(it))
	}
	return b.String()
}

// drainRows pulls a cursor dry: one string per chunk, the error the stream
// ended with, and the evaluation's tuple count.
func drainRows(cur *xqeval.Cursor) (rows []string, tuples int64, err error) {
	defer func() {
		cur.Close()
		_, tuples = cur.Stats()
	}()
	for {
		chunk, err := cur.Next()
		if err == io.EOF {
			return rows, 0, nil
		}
		if err != nil {
			return rows, 0, err
		}
		rows = append(rows, rowText(chunk))
	}
}

func TestFusedMatchesNaive(t *testing.T) {
	ctx := context.Background()
	fusedSeen := 0
	var fanned int64
	for _, c := range fusedCases(t) {
		parallelExec(c.engine, 1)
		plan, err := c.engine.CompileAST(c.query, externalNames(c.params))
		if err != nil {
			t.Fatalf("%s: must compile: %v", c.name, err)
		}
		desc := plan.Stream.Describe()
		switch {
		case c.materialized:
			if plan.Stream.Streamable() {
				t.Fatalf("%s: tokens outside the chain must stream materialized: %s", c.name, desc)
			}
		case !strings.Contains(desc, ", fused: "):
			t.Fatalf("%s: every text plan must encode through its row program: %s", c.name, desc)
		case strings.Contains(desc, ", reads RECORD elements") == c.fused:
			t.Fatalf("%s: tuple source = %v, want %v (%s)", c.name, !c.fused, c.fused, desc)
		}
		if c.fused {
			fusedSeen++
		}

		// A statement may fail: then every path must fail alike.
		want, _, werr := drainRows(c.engine.EvalStreamNaive(ctx, c.query, c.ext, nil))
		out, err := c.engine.EvalNaive(ctx, c.query, c.ext)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: materialized error %v, naive stream error %v", c.name, err, werr)
		}
		if c.fail != "" {
			var xe *xqeval.Error
			if werr == nil || !errors.As(werr, &xe) || !strings.Contains(werr.Error(), c.fail) || err.Error() != werr.Error() {
				t.Fatalf("%s: naive stream error %v, materialized %v; want the typed %q", c.name, werr, err, c.fail)
			}
		}
		if got := rowText(out); werr == nil && got != strings.Join(want, "") {
			t.Fatalf("%s: naive stream diverges from the materialized string\ngot:  %q\nwant: %q", c.name, strings.Join(want, ""), got)
		}
		if c.materialized {
			checkDecodes(t, c, plan, rowText(out))
		}

		check := func(label string, p *xqeval.Plan) {
			t.Helper()
			cur := c.engine.EvalStream(ctx, p, c.ext, nil)
			if cur.RowAligned() == c.materialized {
				t.Fatalf("%s, %s: row-aligned = %v", c.name, label, cur.RowAligned())
			}
			got, _, err := drainRows(cur)
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("%s, %s: error %v, naive %v", c.name, label, err, werr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %s: %d rows, naive has %d", c.name, label, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, %s: row %d diverges from naive\ngot:  %q\nwant: %q", c.name, label, i, got[i], want[i])
				}
			}
		}
		// Each worker count streams a copy with nothing kept, so it builds;
		// then plan itself keeps its closed builds and reuses them.
		for _, workers := range []int{1, 2, 4} {
			parallelExec(c.engine, workers)
			morsels := c.engine.Stats().MorselsProcessed
			check(fmt.Sprintf("%d workers", workers), xqeval.FreshKept(plan))
			if workers > 1 {
				fanned += c.engine.Stats().MorselsProcessed - morsels
			}
		}
		check("4 workers, build", plan)
		check("4 workers, reuse", plan)
		xqeval.ForceFanOutForTest(c.engine, 0, 0, 0)
	}
	if fusedSeen < 20 {
		t.Fatalf("only %d statements fused: the net no longer exercises the row program", fusedSeen)
	}
	if fanned == 0 {
		t.Fatal("no statement fanned out to morsel workers")
	}
}

// checkDecodes holds a materialized text stream, decoded through
// resultset.StreamText's splitter, to the naive string's rows.
func checkDecodes(t *testing.T, c fusedCase, plan *xqeval.Plan, naive string) {
	t.Helper()
	cols := []resultset.Column{
		{Label: "K", ElementName: "K", Type: catalog.SQLVarchar},
		{Label: "S", ElementName: "S", Type: catalog.SQLVarchar},
	}
	dec := resultset.TextDecoder{Cols: cols}
	rc := resultset.StreamText(c.engine.EvalStream(context.Background(), plan, c.ext, nil), cols)
	defer rc.Close()
	want := strings.Split(strings.TrimPrefix(naive, resultset.RowDelimiter), resultset.RowDelimiter)
	for i := 0; ; i++ {
		row, err := rc.Next()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("%s: decoded %d rows, naive has %d", c.name, i, len(want))
			}
			return
		}
		if err != nil || i >= len(want) {
			t.Fatalf("%s: row %d: %v", c.name, i, err)
		}
		wantRow, err := dec.Decode(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(row) != fmt.Sprint(wantRow) {
			t.Fatalf("%s: row %d decodes to %v, naive to %v", c.name, i, row, wantRow)
		}
	}
}

// TestFusedChunkIsOneString pins the emitted shape: a fused row is a single
// xs:string, never a token sequence.
func TestFusedChunkIsOneString(t *testing.T) {
	app, engine := edgeSetup()
	trans := translator.New(catalog.NewCache(app))
	trans.Options.Mode = translator.ModeText
	res, err := trans.Translate("SELECT K, A FROM E")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.CompileAST(res.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := engine.EvalStream(context.Background(), plan, nil, nil)
	defer cur.Close()
	chunk, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) != 1 || chunk[0] != xdm.String(">1<a1") {
		t.Fatalf("first chunk = %v, want the single string \">1<a1\"", chunk)
	}
}

// TestFusedLimitParity sweeps MaxRows and MaxTuples across every charge a
// row makes — the RECORD item, the $tokenQuery tuple, the tokens — and
// holds the planned stream, serial and parallel, from tuples and from
// RECORD elements (DISTINCT, UNION ALL), to the naive one: the same rows
// delivered before the error, the same typed error, the same tuple count.
func TestFusedLimitParity(t *testing.T) {
	ctx := context.Background()
	app, engine := edgeSetup()
	defer engine.SetLimits(xqeval.Limits{})
	trans := translator.New(catalog.NewCache(app))
	trans.Options.Mode = translator.ModeText
	for _, sql := range []string{
		"SELECT K, A, D FROM E WHERE K > 3",
		"SELECT K, S FROM E WHERE K > 3 FETCH FIRST 9 ROWS ONLY",
		"SELECT DISTINCT A FROM E",
		"SELECT K, B FROM E WHERE K > 20 UNION ALL SELECT K, A FROM E WHERE K < 9",
	} {
		res, err := trans.Translate(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := engine.CompileAST(res.Query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan.Stream.Describe(), ", fused: ") {
			t.Fatalf("%q must fuse: %s", sql, plan.Stream.Describe())
		}
		records := strings.Contains(plan.Stream.Describe(), ", reads RECORD elements")
		var limits []xqeval.Limits
		for n := int64(1); n <= 200; n += 1 + n/40 {
			limits = append(limits, xqeval.Limits{MaxRows: n}, xqeval.Limits{MaxTuples: n})
		}
		tripped := 0
		for _, lim := range limits {
			engine.SetLimits(lim)
			parallelExec(engine, 1)
			want, wantTuples, werr := drainRows(engine.EvalStreamNaive(ctx, res.Query, nil, nil))
			if werr != nil {
				tripped++
				var qe *aqerr.QueryError
				if !errors.As(werr, &qe) || qe.Kind != aqerr.KindResourceLimit {
					t.Fatalf("%q %+v: naive error is not a typed resource limit: %v", sql, lim, werr)
				}
			}
			// The naive evaluator runs a FLWOR nested in the rows (DISTINCT's
			// argument, a UNION branch's derived table) breadth-first, every
			// tuple before any row, and the planned executor depth-first: a
			// MaxRows trip inside it leaves different tuple counts. There the
			// parallel runs are held to the serial planned one.
			heldToSerial := records && lim.MaxRows > 0
			for _, workers := range []int{1, 2, 4} {
				parallelExec(engine, workers)
				for iter := 0; iter < 3; iter++ { // worker scheduling varies
					got, tuples, err := drainRows(engine.EvalStream(ctx, plan, nil, nil))
					if heldToSerial && workers == 1 && iter == 0 {
						wantTuples = tuples
					}
					if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
						t.Fatalf("%q %+v, %d workers: error %v, naive %v", sql, lim, workers, err, werr)
					}
					if strings.Join(got, "") != strings.Join(want, "") || len(got) != len(want) {
						t.Fatalf("%q %+v, %d workers: delivered %d rows %q, naive %d rows %q", sql, lim, workers, len(got), got, len(want), want)
					}
					if tuples != wantTuples {
						t.Fatalf("%q %+v, %d workers: %d tuples, naive counted %d", sql, lim, workers, tuples, wantTuples)
					}
				}
			}
		}
		if tripped < 20 || tripped == len(limits) {
			t.Fatalf("%q: %d of %d limits tripped — the sweep must straddle the query's charges", sql, tripped, len(limits))
		}
	}
	xqeval.ForceFanOutForTest(engine, 0, 0, 0)

	// FETCH FIRST n where a serial stream closes a batch — after 1, 3, 7,
	// 15, 31 and 63 rows, the last at the batch cap — one either side of
	// each, and n inside a second morsel, whether morsels are shorter than
	// a batch or longer: rows and tuples are the serial run's. Steps also
	// count the morsel workers' speculation past the stop, so they are held
	// equal only between two serial runs.
	for _, n := range []int{0, 1, 2, 3, 4, 6, 7, 8, 14, 15, 16, 30, 31, 32, 62, 63, 64, 65, 150} {
		scan, plan := fusedScanSetup(t, 400, fmt.Sprintf("SELECT C0, C1, C2, C4 FROM W WHERE C0 > ? FETCH FIRST %d ROWS ONLY", n))
		ext := map[string]xdm.Sequence{"p1": xdm.SequenceOf(xdm.Integer(0))}
		var want []string
		var wantSteps, wantTuples int64
		// Each configuration is {workers, morsel size, minimum items}.
		for i, cfg := range [][3]int{{1, 0, 0}, {1, 0, 0}, {2, 8, 2}, {2, 100, 2}} {
			xqeval.ForceFanOutForTest(scan, cfg[0], cfg[1], cfg[2])
			cur := scan.EvalStream(ctx, plan, ext, nil)
			var got []string
			for {
				row, err := cur.NextText()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("FETCH FIRST %d, %v: %v", n, cfg, err)
				}
				got = append(got, row)
			}
			steps, tuples := cur.Stats()
			if i == 0 {
				want, wantSteps, wantTuples = got, steps, tuples
				if len(want) != n {
					t.Fatalf("FETCH FIRST %d delivered %d rows", n, len(want))
				}
				continue
			}
			if cfg[0] == 1 && steps != wantSteps {
				t.Fatalf("FETCH FIRST %d: serial runs took %d and %d steps", n, wantSteps, steps)
			}
			if strings.Join(got, "") != strings.Join(want, "") || len(got) != len(want) || tuples != wantTuples {
				t.Fatalf("FETCH FIRST %d, %v: %d rows, %d tuples; serial %d rows, %d tuples", n, cfg, len(got), tuples, len(want), wantTuples)
			}
		}
	}
}

// TestFusedScanAllocs is the erosion guard for the hot loop: draining the
// scan shape — one filtered source, plain column references, text mode —
// costs the evaluator at most 8 allocations per row, all in (row string,
// chunk); the for rebinds one tuple cell and the filter's column kernel
// allocates nothing, so a rejected tuple costs next to nothing.
func TestFusedScanAllocs(t *testing.T) {
	const n = 2000
	engine, plan := fusedScanSetup(t, n, scanSQL)
	xqeval.ForceFanOutForTest(engine, 1, 0, 0)
	ext := map[string]xdm.Sequence{"p1": xdm.SequenceOf(xdm.Integer(0))}
	ctx := context.Background()
	drain := func() int {
		cur := engine.EvalStream(ctx, plan, ext, nil)
		defer cur.Close()
		got := 0
		for {
			if _, err := cur.Next(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return got
			}
			got++
		}
	}
	if got := drain(); got != n {
		t.Fatalf("scan returned %d rows, want %d", got, n)
	}
	perRow := testing.AllocsPerRun(5, func() { drain() }) / n
	t.Logf("%.1f allocations per row", perRow)
	if perRow > 8 {
		t.Fatalf("the fused scan costs %.1f allocations per row, want <= 8", perRow)
	}

	// A threshold no row passes leaves the rebound tuple cell and the
	// filter's column kernel as the whole per-tuple cost.
	ext["p1"] = xdm.SequenceOf(xdm.Integer(n))
	if got := drain(); got != 0 {
		t.Fatalf("scan above every key returned %d rows", got)
	}
	perTuple := testing.AllocsPerRun(5, func() { drain() }) / n
	t.Logf("%.2f allocations per rejected tuple (tuple cell and filter)", perTuple)
	if perTuple > 0.1 {
		t.Fatalf("a rejected tuple costs %.2f allocations, want <= 0.1", perTuple)
	}
}

// scanSQL is the scan shape: one source filtered by C0 > $p1, plain column
// references.
const scanSQL = "SELECT C0, C1, C2, C4 FROM W WHERE C0 > ?"

// fusedScanSetup compiles sql, in text mode, over an n-row table W.
func fusedScanSetup(t *testing.T, n int, sql string) (*xqeval.Engine, *xqeval.Plan) {
	t.Helper()
	app := &catalog.Application{Name: "ScanApp"}
	app.AddDSFile(&catalog.DSFile{Path: "Scan", Name: "W", Functions: []*catalog.Function{
		catalog.NewRelationalImport("Scan", "W", []catalog.Column{
			{Name: "C0", Type: catalog.SQLInteger},
			{Name: "C1", Type: catalog.SQLVarchar, Nullable: true, Precision: 32},
			{Name: "C2", Type: catalog.SQLDecimal, Nullable: true, Precision: 10, Scale: 2},
			{Name: "C4", Type: catalog.SQLVarchar, Nullable: true, Precision: 32},
		}),
	}})
	rows := make([]*xdm.Element, n)
	for i := range rows {
		r := xdm.NewElement("W")
		r.AddChild(xdm.NewTextElement("C0", strconv.Itoa(i+1)))
		r.AddChild(xdm.NewTextElement("C1", "word-"+strconv.Itoa(i)+" <&>"))
		if i%8 != 0 {
			r.AddChild(xdm.NewTextElement("C2", strconv.Itoa(i)+".25"))
		}
		r.AddChild(xdm.NewTextElement("C4", "plain"))
		rows[i] = r
	}
	engine := xqeval.New()
	engine.RegisterRows("ld:Scan/W", "W", rows)
	trans := translator.New(catalog.NewCache(app))
	trans.Options.Mode = translator.ModeText
	res, err := trans.Translate(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.CompileAST(res.Query, externalNames(res.ParamCount))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Stream.Describe(), ", fused: ") {
		t.Fatalf("the scan must fuse: %s", plan.Stream.Describe())
	}
	return engine, plan
}

// TestFusedParallelScanCancellation: a context cancelled mid-scan stops a
// fused scan at four morsel workers as it stops a serial one — well short
// of the table, with the context's own error, which the layers above type
// as a timeout.
func TestFusedParallelScanCancellation(t *testing.T) {
	const n = 20000
	engine, plan := fusedScanSetup(t, n, scanSQL)
	defer xqeval.ForceFanOutForTest(engine, 0, 0, 0)
	ext := map[string]xdm.Sequence{"p1": xdm.SequenceOf(xdm.Integer(0))}
	for _, workers := range []int{1, 4} {
		parallelExec(engine, workers)
		ctx, cancel := context.WithCancel(context.Background())
		cur := engine.EvalStream(ctx, plan, ext, nil)
		read := 0
		var err error
		for ; err == nil; read++ {
			if read == 100 {
				cancel()
			}
			_, err = cur.Next()
		}
		cur.Close()
		cancel()
		if err != context.Canceled {
			t.Fatalf("%d workers: stopped with %v, want the context's own context.Canceled", workers, err)
		}
		if read >= n/2 {
			t.Fatalf("%d workers: %d rows read after cancelling at 100 — the scan did not stop", workers, read)
		}
	}
}
