package xqeval

import (
	"context"
	"io"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// TestPlannedScanAllocs is the erosion guard for the streamed scan: a
// 5,000-row filtered scan in the translator's text-mode shape, run by the
// row program serially and fanned out to two morsel workers and pulled
// row by row through NextText, costs at most 0.15 allocations and 90 bytes
// per source row. The row program copies each tuple into text before the
// next is bound, so the for rebinds one cell instead of allocating one per
// row, and rows cross the cursor in batches: a morsel's output buffers are
// allocated once, and a batch costs a few allocations whatever its row
// count.
func TestPlannedScanAllocs(t *testing.T) {
	const n = 5000
	e, plan, ext := plannedScan(t, n)
	drain := func() int {
		cur := e.EvalStream(context.Background(), plan, ext, nil)
		defer cur.Close()
		got := 0
		for {
			if _, err := cur.NextText(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return got
			}
			got++
		}
	}
	for _, workers := range []int{1, 2} {
		ForceFanOutForTest(e, workers, 0, n)
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
		if perRow > 0.15 || bytesPerRow > 90 {
			t.Fatalf("workers %d: the scan costs %.2f allocations and %.0f bytes per source row, want <= 0.15 and <= 90",
				workers, perRow, bytesPerRow)
		}
	}
}

// plannedScan compiles a filtered scan over n rows in the translator's
// text-mode shape; $p1 = n/10 keeps nine rows in ten. The plan is fused.
func plannedScan(t *testing.T, n int) (*Engine, *Plan, map[string]xdm.Sequence) {
	t.Helper()
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
	return e, plan, map[string]xdm.Sequence{"p1": xdm.SequenceOf(xdm.Integer(n / 10))}
}

// TestDefaultFanOutBoundary pins the engine's own decision, with nothing
// forced: at two procs a source of minParallelItems rows fans out into
// morsels of morselSize, and one row fewer stays serial.
func TestDefaultFanOutBoundary(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct{ n, morsels int }{{4096, 4}, {4095, 0}} {
		e, plan, ext := plannedScan(t, c.n)
		before := e.Stats().MorselsProcessed
		cur := e.EvalStream(context.Background(), plan, ext, nil)
		for {
			if _, err := cur.NextText(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		cur.Close()
		if got := e.Stats().MorselsProcessed - before; got != int64(c.morsels) {
			t.Fatalf("%d rows at GOMAXPROCS=2: %d morsels, want %d", c.n, got, c.morsels)
		}
	}
}

// TestFusedBatchesDouble: a serial fused stream evaluates one row for
// Prime, so the first row never waits for a second, and each later pull
// evaluates a batch of 2, 4, … rows up to batchRows — evaluated only when
// the reader has taken every row of the one before.
func TestFusedBatchesDouble(t *testing.T) {
	e, plan, ext := plannedScan(t, 500)
	ForceFanOutForTest(e, 1, 0, 0)
	cur := e.EvalStream(context.Background(), plan, ext, nil)
	defer cur.Close()
	if err := cur.Prime(); err != nil {
		t.Fatal(err)
	}
	if cur.w.rows != 1 {
		t.Fatalf("Prime evaluated %d rows, want 1", cur.w.rows)
	}
	total, want := 0, 1
	for {
		if _, err := cur.NextText(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if cur.pos > 1 {
			continue
		}
		// The pull evaluated a batch, and nothing past it.
		if n := cur.w.n(); n != want && n != 450-total {
			t.Fatalf("batch after %d rows holds %d rows, want %d", total, n, want)
		}
		total += cur.w.n()
		if cur.w.rows != int64(total) {
			t.Fatalf("%d rows evaluated once %d are in batches", cur.w.rows, total)
		}
		want = min(2*want, batchRows)
	}
	if total != 450 {
		t.Fatalf("the batches held %d rows, want 450", total)
	}
}

// TestInFlightBound: however far a slow reader falls behind, no more than
// batchRows rows are ever evaluated but not yet handed out — serially, or
// merged from morsel workers.
func TestInFlightBound(t *testing.T) {
	for _, workers := range []int{1, 2} {
		e, plan, ext := plannedScan(t, 5000)
		ForceFanOutForTest(e, workers, 0, 5000)
		cur := e.EvalStream(context.Background(), plan, ext, nil)
		for i := 0; ; i++ {
			if _, err := cur.NextText(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if i%250 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		cur.Close()
		peak := e.Stats().PeakInFlightRows
		t.Logf("workers %d: %d rows in flight at the peak", workers, peak)
		if peak != batchRows {
			t.Fatalf("workers %d: %d rows in flight at the peak, want %d", workers, peak, batchRows)
		}
	}
}
