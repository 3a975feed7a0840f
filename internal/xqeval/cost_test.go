package xqeval

import (
	"testing"

	"repro/internal/xquery"
)

func costOf(t *testing.T, src string, sp fixedStats) int64 {
	t.Helper()
	q, err := xquery.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return buildPlan(q, sp, prologPrefixes(q)).CostEstimate()
}

const costProlog = `import schema namespace j="urn:j" at "j.xsd";`

// Shape-only fallback: with no statistics, joins must still rank above
// single scans, and single scans above constant bodies.
func TestCostEstimateStructuralOrdering(t *testing.T) {
	constant := costOf(t, `<r/>`, nil)
	scan := costOf(t, costProlog+` for $a in j:L() return $a`, nil)
	join := costOf(t, costProlog+` for $a in j:L() for $b in j:R() where $a/K = $b/K return $a`, nil)
	if !(constant < scan && scan < join) {
		t.Fatalf("shape-only ordering violated: constant=%d scan=%d join=%d", constant, scan, join)
	}
	if constant < 1 {
		t.Fatalf("cost must be >= 1, got %d", constant)
	}
}

type fixedStats map[string]*SourceStats

func (f fixedStats) SourceStats(ns, local string) (*SourceStats, bool) {
	s, ok := f[local]
	return s, ok
}

func (fixedStats) SourcePartition(ns, local string) (*PartitionSpec, bool) { return nil, false }

// Stats-driven scoring: a big scan must outrank a small one, and a hash
// join must score far below the nested-loop cross product of its inputs.
func TestCostEstimateUsesStats(t *testing.T) {
	sp := fixedStats{
		"L": {Rows: 100000, Distinct: map[string]int64{"K": 100000}},
		"R": {Rows: 10, Distinct: map[string]int64{"K": 10}},
	}
	big := costOf(t, costProlog+` for $a in j:L() return $a`, sp)
	small := costOf(t, costProlog+` for $a in j:R() return $a`, sp)
	if big <= small {
		t.Fatalf("big scan (%d) must outrank small scan (%d)", big, small)
	}
	join := costOf(t, costProlog+` for $a in j:L() for $b in j:R() where $a/K = $b/K return $a`, sp)
	// Hash execution: ~100k probes + 10 build rows, nowhere near the 1M
	// cross product.
	if join >= 1000000 {
		t.Fatalf("hash join cost %d looks like a cross product", join)
	}
	if join <= big/2 {
		t.Fatalf("join cost %d should not undercut its own probe input %d", join, big)
	}
}

// Saturation: deep nesting must cap, not overflow into a negative score.
func TestCostEstimateSaturates(t *testing.T) {
	src := costProlog + ` for $a in j:L() for $b in j:L() for $c in j:L() for $d in j:L() for $e in j:L() return $a`
	sp := fixedStats{"L": {Rows: 1 << 30}}
	got := costOf(t, src, sp)
	if got <= 0 || got > costCap {
		t.Fatalf("saturated cost out of range: %d", got)
	}
	if got != costCap {
		t.Fatalf("expected cap %d, got %d", costCap, got)
	}
}
