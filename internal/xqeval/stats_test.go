package xqeval

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// statsTestRows builds n flat rows named name with an ID column (unique)
// and a REGION column (two values).
func statsTestRows(name string, n int) []*xdm.Element {
	rows := make([]*xdm.Element, n)
	for i := 0; i < n; i++ {
		row := xdm.NewElement(name)
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i+1)))
		row.AddChild(xdm.NewTextElement("REGION", []string{"EAST", "WEST"}[i%2]))
		rows[i] = row
	}
	return rows
}

// TestObserveSourceStatsIsSilent locks the lazy-collection contract: the
// first observation wins, later ones are ignored, and the generation never
// moves — so a first scan cannot churn the compile cache. Invalidation
// drops the numbers and does advance it.
func TestObserveSourceStatsIsSilent(t *testing.T) {
	e := New()
	gen0 := e.StatsGeneration()
	if _, ok := e.SourceStats("ld:StatsTest", "T"); ok {
		t.Fatal("stats present before observation")
	}
	first := e.ObserveSourceStats("ld:StatsTest", "T", rowsAsSequence(statsTestRows("T", 5)))
	if first.Rows != 5 || first.Sampled != 5 {
		t.Fatalf("observed rows/sampled = %d/%d, want 5/5", first.Rows, first.Sampled)
	}
	if d := first.DistinctFor("ID"); d != 5 {
		t.Fatalf("distinct ID = %d, want 5", d)
	}
	if d := first.DistinctFor("REGION"); d != 2 {
		t.Fatalf("distinct REGION = %d, want 2", d)
	}
	if first.AvgRowBytes <= 0 {
		t.Fatalf("avg row bytes = %d", first.AvgRowBytes)
	}
	second := e.ObserveSourceStats("ld:StatsTest", "T", rowsAsSequence(statsTestRows("T", 9)))
	if second != first || second.Rows != 5 {
		t.Fatalf("second observation overwrote the first: %+v", second)
	}
	if e.StatsGeneration() != gen0 {
		t.Fatal("lazy observation must not advance the generation")
	}
	if got, ok := e.SourceStats("ld:StatsTest", "T"); !ok || got != first {
		t.Fatal("observed stats not served back")
	}

	e.InvalidateSourceStats()
	if _, ok := e.SourceStats("ld:StatsTest", "T"); ok {
		t.Fatal("stats survived invalidation")
	}
	if e.StatsGeneration() != gen0+1 {
		t.Fatalf("invalidation must advance the generation: got %d", e.StatsGeneration())
	}
}

func rowsAsSequence(rows []*xdm.Element) xdm.Sequence {
	seq := make(xdm.Sequence, len(rows))
	for i, r := range rows {
		seq[i] = r
	}
	return seq
}

// TestStatsSamplingScales checks the bounded-sample estimates: row count
// stays exact past the sampling bound, and distinct counts extrapolate
// linearly, capped at the row count.
func TestStatsSamplingScales(t *testing.T) {
	n := 5000
	s := statsFromRows(rowsAsSequence(statsTestRows("T", n)))
	if s.Rows != int64(n) {
		t.Fatalf("rows = %d, want %d", s.Rows, n)
	}
	if s.Sampled != statsSampleRows {
		t.Fatalf("sampled = %d, want %d", s.Sampled, statsSampleRows)
	}
	if d := s.DistinctFor("ID"); d != int64(n) {
		t.Fatalf("unique column must extrapolate to the row count: %d", d)
	}
	if d := s.DistinctFor("REGION"); d < 1 || d > 8 {
		t.Fatalf("two-valued column extrapolated to %d", d)
	}
}

// statsJoinQuery joins two sources on two equi-conjuncts. Without
// statistics the first conjunct (REGION, 2 distinct values on the build
// side) would be the hash key; statistics should flip the choice to CID.
const statsJoinQuery = `import schema namespace b = "ld:StatsTest" at "StatsTest.xsd";
for $c in b:CUSTOMERS()
for $p in b:PAYMENTS()
where $c/REGION = $p/REGION and $c/ID = $p/CID
return <R>{$c/ID}{$p/PAYMENT}</R>`

func statsJoinEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	e.RegisterRows("ld:StatsTest", "CUSTOMERS", statsTestRows("CUSTOMERS", 12))
	payments := make([]*xdm.Element, 30)
	for i := range payments {
		row := xdm.NewElement("PAYMENTS")
		row.AddChild(xdm.NewTextElement("CID", strconv.Itoa(i%12+1)))
		row.AddChild(xdm.NewTextElement("REGION", []string{"EAST", "WEST"}[i%2]))
		row.AddChild(xdm.NewTextElement("PAYMENT", strconv.Itoa(100+i)))
		payments[i] = row
	}
	e.RegisterRows("ld:StatsTest", "PAYMENTS", payments)
	return e
}

// TestStatsCostAnnotationsAndKeyChoice is the cost-model test: with stats
// observed, the plan reports per-scan cardinalities and hash-join cost
// lines, picks the higher-distinct conjunct as the hash key, and still
// computes the exact same result as the plan compiled before any source was
// observed.
func TestStatsCostAnnotationsAndKeyChoice(t *testing.T) {
	e := statsJoinEngine(t)
	ctx := context.Background()
	q, err := xquery.Parse(statsJoinQuery)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	sdesc := strings.Join(cold.Describe(), "\n")
	if !strings.Contains(sdesc, "stats: none") {
		t.Fatalf("cold plan claims stats:\n%s", sdesc)
	}
	if strings.Contains(sdesc, "stats-picked key") {
		t.Fatalf("cold plan cannot stats-pick a key:\n%s", sdesc)
	}

	// One cold evaluation observes both sources on the way past, as a
	// first production execution does.
	want, err := e.EvalStream(ctx, cold, nil, nil).Drain()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"CUSTOMERS", "PAYMENTS"} {
		if _, ok := e.SourceStats("ld:StatsTest", src); !ok {
			t.Fatalf("cold evaluation observed no stats for %s", src)
		}
	}
	costed, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	desc := strings.Join(costed.Describe(), "\n")
	for _, want := range []string{
		"stats: 2 scans",
		"[invariant, ~12 rows]",
		"cost: ~30 build rows",
		"key CID ~",
		"stats-picked key",
	} {
		if !strings.Contains(desc, want) {
			t.Fatalf("costed plan missing %q:\n%s", want, desc)
		}
	}

	got, err := e.EvalStream(ctx, costed, nil, nil).Drain()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := xdm.MarshalSequence(got), xdm.MarshalSequence(want); g != w {
		t.Fatalf("stats-picked key changed the result\ngot:  %s\nwant: %s", g, w)
	}
}

// TestLazyObservationFeedsNextCompile walks the production lazy path: the
// first planned execution observes the scanned sources without touching
// the generation; a plan compiled afterwards carries their cardinalities.
func TestLazyObservationFeedsNextCompile(t *testing.T) {
	e := statsJoinEngine(t)
	q, err := xquery.Parse(statsJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.StatsSources != 0 {
		t.Fatalf("cold plan saw %d stats scans", cold.StatsSources)
	}
	gen0 := e.StatsGeneration()
	if _, err := e.EvalStream(context.Background(), cold, nil, nil).Drain(); err != nil {
		t.Fatal(err)
	}
	if e.StatsGeneration() != gen0 {
		t.Fatal("lazy observation during execution advanced the generation")
	}
	warm, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.StatsSources == 0 {
		t.Fatal("recompile after first execution saw no observed stats")
	}
}
