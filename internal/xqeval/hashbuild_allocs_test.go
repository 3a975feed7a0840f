package xqeval

import (
	"strconv"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// TestColumnHashBuildAllocs is the erosion guard for the column-keyed hash
// build: filing 1,000 rows by a column read — 500 distinct untyped numeric
// keys, each filed as text and as number — costs at most one allocation per
// row, amortized.
func TestColumnHashBuildAllocs(t *testing.T) {
	const n = 1000
	items := make(xdm.Sequence, n)
	for i := range items {
		r := xdm.NewElement("B")
		r.AddChild(xdm.NewTextElement("K", strconv.Itoa(i%500)))
		r.AddChild(xdm.NewTextElement("V", "x"))
		items[i] = r
	}
	q, err := xquery.Parse(`import schema namespace j = "urn:j" at "j.xsd";
for $a in j:A() for $b in j:B() where $b/K = $a/K return $b`)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	e.RegisterRows("urn:j", "A", nil)
	e.RegisterRows("urn:j", "B", nil)
	op := &MustCompile(t, e, q, nil).flwors[q.Body].segments[0].ops[1]
	if op.hash == nil {
		t.Fatal("no hash join planned")
	}
	root := &scope{st: &evalState{engine: e, prefixes: map[string]string{}, counters: &evalCounters{}}}
	perItem := testing.AllocsPerRun(20, func() {
		if _, err := buildHashTable(op, root, items); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("%.3f allocations per built row", perItem)
	if perItem > 1 {
		t.Fatalf("the column hash build costs %.3f allocations per row, want <= 1", perItem)
	}
}
