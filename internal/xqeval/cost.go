package xqeval

// cost.go scores a plan for admission control: a single int64 "row visits"
// estimate of how much work one execution performs. The server's cost-aware
// admission (internal/server) converts the score into semaphore weight, so
// an expensive scan-join holds many slots while point lookups keep flowing.
//
// The model is deliberately coarse — it only has to rank queries, not
// predict runtimes. When statistics are available (estRows/estBuild from
// stats.go) the score is cardinality-driven; without them it degrades to a
// shape-only complexity estimate: every unresolved scan is assumed to be
// costDefaultScanRows rows, every dependent (non-invariant) for a small
// fan-out, so joins still multiply and nesting still compounds. Both paths
// are pure functions of the immutable plan, so the score is computed once
// at compile time and rides the cached artifact (qcache) — admission
// scoring is cache-hot.

const (
	// costDefaultScanRows is the assumed cardinality of a data-service scan
	// whose statistics have not been observed — the shape-only fallback.
	costDefaultScanRows = 1000
	// costDependentFanout is the assumed per-tuple yield of a dependent
	// (tuple-correlated) for, e.g. iterating child elements of a row.
	costDependentFanout = 4
	// costCap saturates the score so pathological nesting cannot overflow;
	// anything at the cap weighs the server's MaxQueryWeight.
	costCap = int64(1) << 40
)

// CostEstimate returns the plan's admission score: an estimate of total
// tuple visits across every FLWOR in the query. Nested FLWORs (subqueries)
// are summed rather than multiplied by their outer cardinality — cheaper to
// compute, and still monotone in the shapes the translator generates. The
// result is ≥ 1 and saturates at a fixed cap.
func (p *Plan) CostEstimate() int64 {
	if p == nil {
		return 1
	}
	total := int64(0)
	for _, fp := range p.ordered {
		total = costSatAdd(total, fp.cost())
	}
	if total < 1 {
		return 1
	}
	return total
}

// cost walks one FLWOR's pipeline keeping a running tuple-count estimate.
func (fp *flworPlan) cost() int64 {
	var total int64
	tuples := int64(1)
	for _, seg := range fp.segments {
		for _, op := range seg.ops {
			switch op.kind {
			case opKindFor:
				rows := op.estRows
				if rows < 0 {
					if op.scan != nil || op.invariant {
						rows = costDefaultScanRows
					} else {
						rows = costDependentFanout
					}
				}
				if rows < 1 {
					rows = 1
				}
				if op.hash != nil {
					// Build once, probe once per incoming tuple; the tuple
					// stream grows by the expected matches per probe.
					build := op.hash.estBuild
					if build < 0 {
						build = rows
					}
					total = costSatAdd(total, build)
					total = costSatAdd(total, tuples)
					matches := int64(1)
					if op.hash.estDistinct > 0 {
						matches = build / op.hash.estDistinct
						if matches < 1 {
							matches = 1
						}
					}
					tuples = costSatMul(tuples, matches)
				} else {
					// Nested iteration: the cross product is visited.
					tuples = costSatMul(tuples, rows)
					total = costSatAdd(total, tuples)
				}
			case opKindLet:
				total = costSatAdd(total, tuples)
			case opKindFilter:
				total = costSatAdd(total, tuples)
				// Assume half the tuples survive each filter, floor 1 —
				// enough to keep filtered joins cheaper than raw products.
				if tuples > 1 {
					tuples /= 2
				}
			}
		}
		if seg.barrier != nil {
			// Grouping/sorting materializes and reorders the tuple set.
			total = costSatAdd(total, tuples)
		}
	}
	return total
}

func costSatAdd(a, b int64) int64 {
	s := a + b
	if s < a || s > costCap {
		return costCap
	}
	return s
}

func costSatMul(a, b int64) int64 {
	if a <= 0 || b <= 0 {
		return 1
	}
	if a > costCap/b {
		return costCap
	}
	return a * b
}
