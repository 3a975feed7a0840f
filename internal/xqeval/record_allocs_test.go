package xqeval

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// TestRecordKernelAllocs is the erosion guard for the column-record kernel:
// a RECORD of column copies — plain, guarded present and guarded absent
// columns from two source rows — is one flat xdm.Record, two allocations
// (the node and its cells) whatever its column count; a join RECORD whose
// consumer reads 2 of its 9 columns builds only those 2.
func TestRecordKernelAllocs(t *testing.T) {
	for _, n := range []int{4, 12} {
		var ctor strings.Builder
		ctor.WriteString("<RECORD>")
		var a, b []string
		for i := 0; i < n; i++ {
			col, v := "C"+strconv.Itoa(i), "a"
			if i%2 == 1 {
				v = "b"
			}
			if i%3 == 0 {
				ctor.WriteString(plainCol(v+"."+col, v, col))
			} else {
				ctor.WriteString(guardedCol(v+"."+col, v, col))
			}
			if i%3 != 2 { // every third column is NULL
				if v == "a" {
					a = append(a, col, "text "+col)
				} else {
					b = append(b, col, "text "+col)
				}
			}
		}
		ctor.WriteString("</RECORD>")
		e, p := recordPlan(t, ctor.String())
		c := recordCase{a: xdm.SequenceOf(recordRow(a...)), b: xdm.SequenceOf(recordRow(b...))}
		if _, ok := p.records[e]; !ok {
			t.Fatalf("%d columns: no record kernel planned", n)
		}
		kernel, _ := measureRecord(t, e, p, c)
		generic, _ := measureRecord(t, e, nil, c)
		t.Logf("%d columns: %.0f allocations per kernel-built RECORD, %.0f generic", n, kernel, generic)
		if kernel > 2 {
			t.Fatalf("%d columns: the kernel costs %.0f allocations per RECORD, want <= 2", n, kernel)
		}
	}

	// Pruned: a 9-column join RECORD building the 2 columns its consumer
	// reads takes 80 bytes on 64-bit Go 1.24, a 48-byte node and two
	// 16-byte cells (384 as an element tree, 1,456 with every column).
	e, p, c := joinRecord9(t)
	if _, ok := p.records[e]; !ok {
		t.Fatal("9-column join: no record kernel planned")
	}
	allocs, bytes := measureRecord(t, e, p, c)
	t.Logf("9-column join reading 2: %.0f allocations, %.0f bytes per RECORD", allocs, bytes)
	if allocs > 2 || bytes > 128 {
		t.Fatalf("9-column join reading 2: the kernel costs %.0f allocations and %.0f bytes per RECORD, want <= 2 and <= 128", allocs, bytes)
	}
}

// measureRecord reports the allocations and bytes of one evaluation of e.
func measureRecord(t *testing.T, e *xquery.ElementCtor, p *Plan, c recordCase) (allocs, bytes float64) {
	env := recordScope(context.Background(), c, p, 0, 0)
	build := func() {
		if _, err := constructElement(e, env); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(100, build)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 1000
}

// joinRecord9 is a join RECORD of 5 columns of $a and 4 of $b, 2 of which
// the FLWOR over its RECORDSET reads; and the rows its variables bind.
func joinRecord9(t *testing.T) (*xquery.ElementCtor, *Plan, recordCase) {
	var ctor strings.Builder
	var a, b []string
	ctor.WriteString("<RECORD>")
	for i := 0; i < 9; i++ {
		v, col := "a", "C"+strconv.Itoa(i)
		if i >= 5 {
			v = "b"
		}
		if i%2 == 0 {
			ctor.WriteString(plainCol(strings.ToUpper(v)+"."+col, v, col))
		} else {
			ctor.WriteString(guardedCol(strings.ToUpper(v)+"."+col, v, col))
		}
		if v == "a" {
			a = append(a, col, "text of "+col)
		} else {
			b = append(b, col, "text of "+col)
		}
	}
	ctor.WriteString("</RECORD>")
	q := kernelQuery(t, `let $t := <RECORDSET>{ for $a in j:R() for $b in j:S() return `+ctor.String()+
		` }</RECORDSET> for $v in $t/RECORD return (fn:data($v/A.C1), fn:data($v/B.C6))`)
	var rec *xquery.ElementCtor
	xquery.WalkExprs(q.Body, func(e xquery.Expr) bool {
		if ctor, ok := e.(*xquery.ElementCtor); ok && ctor.Name == "RECORD" {
			rec = ctor
		}
		return true
	})
	return rec, MustCompile(t, kernelEngine(), q, nil), recordCase{a: xdm.SequenceOf(recordRow(a...)), b: xdm.SequenceOf(recordRow(b...))}
}
