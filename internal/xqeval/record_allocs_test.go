package xqeval

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xdm"
)

// TestRecordKernelAllocs is the erosion guard for the column-record kernel:
// a RECORD of column copies — plain, guarded present and guarded absent
// columns from two source rows — costs a small constant number of
// allocations that does not grow with its column count.
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
		measure := func(p *Plan) float64 {
			env := recordScope(context.Background(), c, p, 0, 0)
			return testing.AllocsPerRun(100, func() {
				if _, err := constructElement(e, env); err != nil {
					t.Fatal(err)
				}
			})
		}
		if _, ok := p.records[e]; !ok {
			t.Fatalf("%d columns: no record kernel planned", n)
		}
		kernel, generic := measure(p), measure(nil)
		t.Logf("%d columns: %.0f allocations per kernel-built RECORD, %.0f generic", n, kernel, generic)
		if kernel > 6 {
			t.Fatalf("%d columns: the kernel costs %.0f allocations per RECORD, want <= 6", n, kernel)
		}
	}
}
