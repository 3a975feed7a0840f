package gen

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// inputs renders everything a seed generates, for byte comparison.
func inputs(seed uint64) string {
	r := NewRand(seed)
	small := Small(r, 4)
	w := Wide(r, 50)
	shop := Shop(r, 20, 40)
	point, drill := Lookups(shop)
	reports := Reports(r, shop, 2)
	var b strings.Builder
	for _, t := range append(append(small, w), shop...) {
		fmt.Fprintln(&b, t.Path, t.Name, t.Cols, t.Rows)
	}
	for _, calls := range [][]Call{Adhoc(r, small, 70), Scan(r, w, 4), reports[0], reports[1], reports[2], point, drill} {
		for _, c := range calls {
			fmt.Fprintln(&b, *c.Q, c.Args, c.Want)
		}
	}
	return b.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := inputs(7), inputs(7); a != b {
		t.Fatal("same seed generated different data, statements or answers")
	}
}

func TestSeedChangesStatements(t *testing.T) {
	stmts := func(seed uint64) map[string]bool {
		r := NewRand(seed)
		out := map[string]bool{}
		for _, c := range Adhoc(r, Small(r, 24), 700) {
			out[c.Q.SQL] = true
		}
		return out
	}
	a, b := stmts(1), stmts(2)
	if len(a) != 700 || len(b) != 700 {
		t.Fatalf("statements not distinct within a seed: %d and %d of 700", len(a), len(b))
	}
	shared := 0
	for s := range a {
		if b[s] {
			shared++
		}
	}
	if shared > 70 {
		t.Fatalf("%d of 700 statements shared between two seeds", shared)
	}
}

func TestAdhocCyclesClasses(t *testing.T) {
	r := NewRand(3)
	for i, c := range Adhoc(r, Small(r, 24), 70) {
		if c.Q.Class != Classes[i%len(Classes)] {
			t.Fatalf("statement %d is %s, want %s", i, c.Q.Class, Classes[i%len(Classes)])
		}
	}
}

// The oracle's helpers against answers worked out by hand.
func TestOracle(t *testing.T) {
	a := &Table{Cols: []Column{{"K", Int, false}, {"V", Dec, true}}, Rows: [][]string{{"1", "2.50"}, {"2", ""}, {"3", "1.25"}, {"1", "4.00"}}}
	b := &Table{Cols: []Column{{"K", Int, false}, {"S", Str, true}}, Rows: [][]string{{"1", "x"}, {"3", ""}}}

	if got, want := join(a, b, 0, 0, false), [][]string{{"1", "2.50", "1", "x"}, {"3", "1.25", "3", ""}, {"1", "4.00", "1", "x"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("inner join = %v", got)
	}
	if got := join(a, b, 0, 0, true); len(got) != 4 || !reflect.DeepEqual(got[1], []string{"2", "", "", ""}) {
		t.Errorf("outer join = %v, want key 2 NULL-padded", got)
	}
	groups := group(a.Rows, 0, []agg{{fn: "COUNT", col: -1}, {"COUNT", 1, Dec}, {"SUM", 1, Dec}, {"MAX", 1, Dec}})
	want := [][]string{{"1", "2", "2", "6.50", "4.00"}, {"2", "1", "0", "", ""}, {"3", "1", "1", "1.25", "1.25"}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("group = %v, want %v", groups, want)
	}
	kinds := []Kind{Int, Int, Int, Dec, Dec}
	sortRows(groups, kinds, desc(3), 0) // SUM descending, NULL lowest
	if groups[0][0] != "1" || groups[1][0] != "3" || groups[2][0] != "2" {
		t.Errorf("sort by SUM desc = %v", groups)
	}
}

func TestDigest(t *testing.T) {
	unordered := &Query{Kinds: []Kind{Int, Dec}}
	ordered := &Query{Kinds: []Kind{Int, Dec}, Ordered: true}
	rows := [][]string{{"1", "2.50"}, {"2", ""}}
	swapped := [][]string{rows[1], rows[0]}
	if !unordered.digest(rows).Equal(unordered.digest(swapped)) {
		t.Error("unordered digest depends on row order")
	}
	if ordered.digest(rows).Equal(ordered.digest(swapped)) {
		t.Error("ordered digest ignores row order")
	}
	if !unordered.digest(rows).Equal(unordered.digest([][]string{{"1", "2.5"}, {"2", ""}})) {
		t.Error("2.50 and 2.5 digest differently")
	}
	if !unordered.digest(rows).Equal(unordered.digest([][]string{{"1", "2.4999999999999996"}, {"2", ""}})) {
		t.Error("a float64 rendering of 2.50 is not accepted to the cent")
	}
	if unordered.digest(rows).Equal(unordered.digest([][]string{{"1", "2.51"}, {"2", ""}})) {
		t.Error("a cent's difference is not detected")
	}
	// Cells moved between rows keep the column sums; the row sum catches it.
	if unordered.digest(rows).Equal(unordered.digest([][]string{{"1", ""}, {"2", "2.50"}})) {
		t.Error("cells swapped between rows are not detected")
	}
}
