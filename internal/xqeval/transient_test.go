package xqeval_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xqeval"
	"repro/internal/xquery"
)

// TestTransientCells is the aliasing net for the final segment's rebound
// tuple cells: FLWORs whose sink is done with a tuple before the next is
// bound (a constructor return) rebind one cell per op, and every other
// return keeps fresh ones. Each shape runs over 20 source rows — three
// morsels at parallelExec's size — serially and at two workers, streamed
// and drained whole (Cursor.Drain), and must equal the naive evaluator.
// The final segment after an order by rebinds under each sorted tuple.
// `return $r` hands out the cell's item, so each of its rows must be a
// distinct item: a forced rebind there buffers one cell's slice per row.
func TestTransientCells(t *testing.T) {
	const n = 20
	ts, ss := make([]*xdm.Element, n), make([]*xdm.Element, n)
	for i := range ts {
		ts[i] = xdm.NewElement("T")
		ts[i].AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		ts[i].AddChild(xdm.NewTextElement("VAL", fmt.Sprintf("v%d", i)))
		ss[i] = xdm.NewElement("S")
		ss[i].AddChild(xdm.NewTextElement("K", strconv.Itoa(n-1-i)))
		ss[i].AddChild(xdm.NewTextElement("W", fmt.Sprintf("w%d", i)))
	}
	e := xqeval.New()
	e.RegisterRows("ld:Tr/T", "T", ts)
	e.RegisterRows("ld:Tr/S", "S", ss)
	defer xqeval.ForceFanOutForTest(e, 0, 0, 0)
	ctx := context.Background()
	for _, c := range []struct{ name, flwor, plan string }{
		{"return $r", `for $r in p:T() where $r/ID >= 1 return $r`, ""},
		{"let and constructor", `for $r in p:T() let $y := $r return <R>{$y/ID}<V>{fn:data($y/VAL)}</V></R>`, ""},
		{"scalar subquery", `for $r in p:T() return <R><V>{fn:data($r/VAL)}</V><N>{fn:count(for $s in q:S() where $s/K <= $r/ID return $s)}</N></R>`, ""},
		{"hash probe", `for $a in p:T() for $b in q:S() where $a/ID = $b/K return <RECORD><A>{fn:data($a/VAL)}</A><B>{fn:data($b/W)}</B></RECORD>`, "hash"},
		{"at", `for $r at $i in p:T() return <R><I>{$i}</I><V>{fn:data($r/VAL)}</V></R>`, ""},
		{"after a barrier", `for $r in p:T() order by fn:data($r/VAL) descending let $y := fn:data($r/ID) return <R>{$y}</R>`, ""},
	} {
		q, err := xquery.Parse(`import schema namespace p = "ld:Tr/T" at "T.xsd";
import schema namespace q = "ld:Tr/S" at "S.xsd";
<RECORDSET>{` + c.flwor + `}</RECORDSET>`)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := e.EvalNaive(ctx, q, nil)
		if err != nil {
			t.Fatalf("%s: naive: %v", c.name, err)
		}
		rows := want[0].(*xdm.Element).Children
		if len(rows) < 4 {
			t.Fatalf("%s: only %d rows", c.name, len(rows))
		}
		plan, err := e.CompileAST(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if desc := strings.Join(plan.Describe(), "\n"); !strings.Contains(desc, c.plan) {
			t.Fatalf("%s: plan lacks %q:\n%s", c.name, c.plan, desc)
		}
		// Every evaluation runs on a copy with nothing kept, so it builds.
		for _, workers := range []int{1, 2} {
			parallelExec(e, workers)
			got, err := e.EvalStream(ctx, xqeval.FreshKept(plan), nil, nil).Drain()
			if err != nil {
				t.Fatalf("%s, %d workers: %v", c.name, workers, err)
			}
			if g, w := xdm.MarshalSequence(got), xdm.MarshalSequence(want); g != w {
				t.Fatalf("%s, %d workers: diverges from naive\ngot:  %s\nwant: %s", c.name, workers, g, w)
			}
			streamed, err := drainCursor(e.EvalStream(ctx, xqeval.FreshKept(plan), nil, nil))
			if err != nil {
				t.Fatalf("%s, %d workers: stream: %v", c.name, workers, err)
			}
			if len(streamed) != len(rows) {
				t.Fatalf("%s, %d workers: streamed %d rows, naive has %d", c.name, workers, len(streamed), len(rows))
			}
			seen := map[xdm.Item]bool{}
			for i, it := range streamed {
				if g, w := xdm.MarshalSequence(xdm.SequenceOf(it)), xdm.MarshalSequence(xdm.SequenceOf(rows[i])); g != w {
					t.Fatalf("%s, %d workers: streamed row %d diverges from naive\ngot:  %s\nwant: %s", c.name, workers, i, g, w)
				}
				if seen[it] {
					t.Fatalf("%s, %d workers: streamed row %d is an item already handed out", c.name, workers, i)
				}
				seen[it] = true
			}
		}
	}
}
