package xqeval

import (
	"context"
	"io"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// TestPlannedScanAllocs is the erosion guard for the streamed scan: a
// 5,000-row filtered scan in the translator's text-mode shape, run by the
// row program serially and fanned out to two morsel workers, costs at most
// 4 allocations and 240 bytes per source row. A bound tuple is one cell
// holding its row inline, and a morsel's output buffers are allocated once.
func TestPlannedScanAllocs(t *testing.T) {
	const n = 5000
	rows := make([]*xdm.Element, n)
	for i := range rows {
		r := xdm.NewElement("W")
		r.AddChild(xdm.NewTextElement("C0", strconv.Itoa(i)))
		r.AddChild(xdm.NewTextElement("C1", "word-"+strconv.Itoa(i)+" <&>"))
		if i%8 != 0 {
			r.AddChild(xdm.NewTextElement("C2", strconv.Itoa(i)+".25"))
		}
		rows[i] = r
	}
	e := New()
	e.RegisterRows("ld:Scan/W", "W", rows)
	q, err := xquery.Parse(`import schema namespace ns0 = "ld:Scan/W" at "ld:Scan/schemas/W.xsd";
fn:string-join(
let $actualQuery := <RECORDSET>{
  for $v in ns0:W()
  where ($v/C0 >= xs:integer($p1))
  return <RECORD>
    <C0>{fn:data($v/C0)}</C0>
    { if (fn:empty(fn:data($v/C1))) then () else <C1>{fn:data($v/C1)}</C1> }
    { if (fn:empty(fn:data($v/C2))) then () else <C2>{fn:data($v/C2)}</C2> }
  </RECORD>
}</RECORDSET>
for $tokenQuery in $actualQuery/RECORD
return (">", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/C0))), "&amp;null;"),
  "<", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/C1))), "&amp;null;"),
  "<", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/C2))), "&amp;null;")),
"")`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, []string{"p1"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stream.prog == nil {
		t.Fatalf("the scan is not fused: %s", plan.Stream.Describe())
	}
	// The filter keeps nine rows in ten.
	ext := map[string]xdm.Sequence{"p1": xdm.SequenceOf(xdm.Integer(n / 10))}
	drain := func() int {
		cur := e.EvalStream(context.Background(), plan, ext, nil)
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
	for _, workers := range []int{1, 2} {
		e.SetExec(ExecConfig{Workers: workers, MinParallelItems: n})
		if got := drain(); got != n-n/10 {
			t.Fatalf("workers %d: scan returned %d rows, want %d", workers, got, n-n/10)
		}
		perRow := testing.AllocsPerRun(5, func() { drain() }) / n
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 5; i++ {
			drain()
		}
		runtime.ReadMemStats(&after)
		bytesPerRow := float64(after.TotalAlloc-before.TotalAlloc) / (5 * n)
		t.Logf("workers %d: %.2f allocations, %.0f bytes per source row", workers, perRow, bytesPerRow)
		if perRow > 4 || bytesPerRow > 240 {
			t.Fatalf("workers %d: the scan costs %.2f allocations and %.0f bytes per source row, want <= 4 and <= 240",
				workers, perRow, bytesPerRow)
		}
	}
}
