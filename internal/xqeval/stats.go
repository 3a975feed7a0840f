package xqeval

import (
	"sync"
	"sync/atomic"

	"repro/internal/xdm"
)

// stats.go is the engine's per-data-service statistics store: row counts,
// per-column distinct-key estimates, and average row widths, keyed like the
// function registry (namespace × local name). Statistics feed the planner's
// cost model (CompileAST): estimated scan cardinalities and hash-join
// selectivities rendered in EXPLAIN, and the choice of hash key when a join
// offers several equi-conjuncts.
//
// Collection is lazy: the first planned scan of a source observes its row
// sequence on the way past, at a bounded sampling cost. Observations
// accumulate silently: plans compiled afterwards see them, already-cached
// plans keep running (they are still correct, just costed blind) and the
// compile cache stays stable under steady load. Invalidation drops every
// statistic and advances a generation counter the compile cache stamps
// artifacts with, so it retires every plan costed against the old
// numbers, as a catalog change retires the artifacts whose metadata
// stamp it moves.

// statsSampleRows bounds the per-observation sampling work: distinct-key
// and row-width estimates are computed from at most this many rows and
// scaled to the full cardinality.
const statsSampleRows = 2048

// SourceStats describes one data service function's result set.
type SourceStats struct {
	// Rows is the exact row count of the observed result sequence.
	Rows int64
	// AvgRowBytes is the mean flat-row payload size (element names plus
	// text values) over the sampled prefix.
	AvgRowBytes int64
	// Distinct maps a column (child element) name to its estimated
	// distinct-value count, scaled up from the sample when the source was
	// larger than the sampling bound; values never exceed Rows.
	Distinct map[string]int64
	// Sampled is how many rows the estimates were computed from.
	Sampled int64
}

// DistinctFor returns the distinct-key estimate for a column, or 0 when
// the column was never observed (absent or always NULL in the sample).
func (s *SourceStats) DistinctFor(col string) int64 {
	if s == nil || s.Distinct == nil {
		return 0
	}
	return s.Distinct[col]
}

// sourceStatsStore is the engine-side cache. A zero value is ready to use.
type sourceStatsStore struct {
	mu    sync.RWMutex
	stats map[funcKey]*SourceStats
	gen   atomic.Uint64
}

// SourceStats returns the cached statistics for one data service function.
// It is what the planner consults; the engine counts its hits and misses.
func (e *Engine) SourceStats(namespace, local string) (*SourceStats, bool) {
	e.srcStats.mu.RLock()
	s, ok := e.srcStats.stats[funcKey{namespace, local}]
	e.srcStats.mu.RUnlock()
	if ok {
		e.m.statsHits.Inc()
	} else {
		e.m.statsMisses.Inc()
	}
	return s, ok
}

// StatsGeneration is the statistics epoch: it advances on
// InvalidateSourceStats — never on lazy observation, which would churn
// the compile cache on every first scan. The compile cache stamps
// artifacts with it so an invalidation retires stale plans.
func (e *Engine) StatsGeneration() uint64 {
	return e.srcStats.gen.Load()
}

// InvalidateSourceStats drops every cached statistic and advances the
// generation — called when the catalog changes underneath the engine
// (view definition, fault/resilience stack rebuild), since the shapes and
// cardinalities behind the function registry may have changed with it.
// It also retires every value kept with a plan, whose builds observed the
// scans that fill the store.
func (e *Engine) InvalidateSourceStats() {
	e.srcStats.mu.Lock()
	e.srcStats.stats = nil
	e.srcStats.mu.Unlock()
	e.srcStats.gen.Add(1)
	e.epoch.Add(1)
}

// ObserveSourceStats records statistics computed from one full result
// sequence of the named function — the lazy collection path. The first
// observation wins (results of a parameterless source are stable between
// catalog changes) and the generation does NOT advance, so cached plans
// are undisturbed. Returns the stored stats.
func (e *Engine) ObserveSourceStats(namespace, local string, rows xdm.Sequence) *SourceStats {
	key := funcKey{namespace, local}
	e.srcStats.mu.RLock()
	s, ok := e.srcStats.stats[key]
	e.srcStats.mu.RUnlock()
	if ok {
		return s
	}
	s = statsFromRows(rows)
	e.srcStats.mu.Lock()
	defer e.srcStats.mu.Unlock()
	if prior, ok := e.srcStats.stats[key]; ok {
		// Lost the race to a concurrent observer; first wins.
		return prior
	}
	if e.srcStats.stats == nil {
		e.srcStats.stats = make(map[funcKey]*SourceStats)
	}
	e.srcStats.stats[key] = s
	return s
}

// maybeObserveScan is the lazy collection hook: invariant planned scans of
// a statically-resolved source pass their freshly evaluated sequence here.
// Already-observed sources return in one read-locked map probe.
func maybeObserveScan(env *scope, op *planOp, seq xdm.Sequence) {
	if op.scan == nil || env == nil || env.st.engine == nil {
		return
	}
	e := env.st.engine
	e.srcStats.mu.RLock()
	_, ok := e.srcStats.stats[funcKey{op.scan.namespace, op.scan.local}]
	e.srcStats.mu.RUnlock()
	if ok {
		return
	}
	e.ObserveSourceStats(op.scan.namespace, op.scan.local, seq)
}

// statsFromRows computes SourceStats from a result sequence: the exact row
// count, and distinct/width estimates over at most statsSampleRows rows.
// Distinct counts scale linearly from the sampled fraction — crude, but a
// usable selectivity signal for equi-join key choice — and are capped at
// the row count.
func statsFromRows(rows xdm.Sequence) *SourceStats {
	s := &SourceStats{Rows: int64(len(rows))}
	sample := len(rows)
	if sample > statsSampleRows {
		sample = statsSampleRows
	}
	s.Sampled = int64(sample)
	if sample == 0 {
		return s
	}
	distinct := make(map[string]map[string]struct{})
	var bytes int64
	for _, it := range rows[:sample] {
		el, ok := it.(*xdm.Element)
		if !ok {
			continue
		}
		for _, ch := range el.Children {
			col, ok := ch.(*xdm.Element)
			if !ok {
				continue
			}
			v := col.StringValue()
			bytes += int64(len(col.Name.Local) + len(v))
			set := distinct[col.Name.Local]
			if set == nil {
				set = make(map[string]struct{})
				distinct[col.Name.Local] = set
			}
			set[v] = struct{}{}
		}
	}
	s.AvgRowBytes = bytes / int64(sample)
	s.Distinct = make(map[string]int64, len(distinct))
	for col, set := range distinct {
		d := int64(len(set))
		if s.Sampled < s.Rows && d > 0 {
			// Scale the sampled distinct count to the full cardinality;
			// saturated samples (every sampled value unique) extrapolate to
			// a unique key, which is the common join-key case.
			d = d * s.Rows / s.Sampled
		}
		if d > s.Rows {
			d = s.Rows
		}
		s.Distinct[col] = d
	}
	return s
}
