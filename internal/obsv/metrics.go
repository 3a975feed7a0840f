package obsv

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic high-water mark: unlike Counter it records the
// largest value seen, not a running total.
type Gauge struct {
	v atomic.Int64
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// SetMax raises the gauge to n if n is larger — a concurrency-safe
// high-water mark (used for peak in-flight rows across cursors).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// histBuckets is the number of power-of-two latency buckets: bucket i
// holds observations in [2^i µs, 2^(i+1) µs), bucket 0 holds < 2 µs, and
// the last bucket holds everything from ~2.1 s up.
const histBuckets = 22

// Histogram is a lock-free duration histogram with power-of-two
// microsecond buckets — coarse, but enough to find a hot path's shape
// without a metrics dependency.
type Histogram struct {
	count   atomic.Int64
	sumNano atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNano.Add(d.Nanoseconds())
	h.buckets[bucketFor(d)].Add(1)
}

func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := bits.Len64(uint64(us)) // 1µs → 1, 2-3µs → 2, …
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i (the last
// bucket is unbounded and reports a negative duration).
func BucketBound(i int) time.Duration {
	if i >= histBuckets-1 {
		return -1
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64
	SumNano int64
	Buckets [histBuckets]int64
}

// Mean returns the mean observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNano / s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q ≤ 1)
// from the bucket boundaries. The rank rounds up, so small counts behave
// sensibly (p99 of 3 observations is the maximum, not the 2nd-smallest).
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen >= target {
			if b := BucketBound(i); b >= 0 {
				return b
			}
			break
		}
	}
	// Landed in the unbounded bucket: the mean is the best cheap bound.
	return time.Duration(s.SumNano / s.Count)
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumNano = h.sumNano.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// LabeledCounter is a counter partitioned by a string label (e.g. scans
// per federated source). It trades the plain counters' lock-freedom for a
// mutex-guarded map — fine for per-scan granularity, wrong for per-row.
type LabeledCounter struct {
	mu sync.Mutex
	v  map[string]int64
}

// Add adds n under label.
func (c *LabeledCounter) Add(label string, n int64) {
	c.mu.Lock()
	if c.v == nil {
		c.v = make(map[string]int64)
	}
	c.v[label] += n
	c.mu.Unlock()
}

// Snapshot copies the per-label values (nil when nothing was counted).
func (c *LabeledCounter) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.v) == 0 {
		return nil
	}
	out := make(map[string]int64, len(c.v))
	for k, v := range c.v {
		out[k] = v
	}
	return out
}

// Metrics aggregates pipeline activity. The zero value is ready to use;
// every field updates atomically, so one Metrics may be shared by any
// number of goroutines. The process-wide instance is Global.
//
// A counter lives here only when no object owns the event it counts. The
// metadata cache (catalog.Cache.Stats), the compile cache (qcache.Cache.Stats)
// and the network server (server.Server.Stats) keep their own counters and
// are read from their owners, never mirrored here, so two platforms or two
// servers in one process never add into each other's figures.
type Metrics struct {
	// QueriesTranslated counts completed translations;
	// TranslateErrors counts translations rejected at any stage.
	QueriesTranslated Counter
	TranslateErrors   Counter
	// QueriesExecuted counts engine evaluations of translated queries.
	QueriesExecuted Counter
	// RowsMaterialized counts result-set rows decoded whole (§4, both
	// paths); RowsStreamed counts rows delivered one pull at a time
	// through the streaming decoders.
	RowsMaterialized Counter
	RowsStreamed     Counter
	// TimeToFirstRow observes the latency from opening a streaming cursor
	// to its first row becoming available; PeakInFlightRows is the
	// high-water mark of rows buffered between producer and consumer
	// across all cursors (bounded by the cursor channel's capacity).
	TimeToFirstRow   Histogram
	PeakInFlightRows Gauge
	// EvalSteps counts evaluator expression steps (the engine's unit of
	// work).
	EvalSteps Counter
	// PlansBuilt counts evaluator query plans constructed; the remaining
	// Plan* counters aggregate the planner's static decisions across those
	// plans, and TuplesPruned counts tuples the planned executor skipped
	// relative to the naive nested-loop pipeline (hash-join misses plus
	// pushed-predicate rejections).
	PlansBuilt            Counter
	PlanHashJoins         Counter
	PlanPredicatesPushed  Counter
	PlanInvariantsHoisted Counter
	TuplesPruned          Counter

	// Parallel-execution counters (internal/xqeval parallel.go):
	// ParallelWorkers counts morsel workers spawned across all parallel
	// segments, MorselsProcessed counts morsels flushed through the ordered
	// merge, and MergeBacklog is the high-water mark of completed morsels
	// waiting on the merge point (bounded by the speculation window).
	// SourceStatsHits/Misses count the planner's statistics lookups
	// (stats.go) — misses mean a plan was built before its sources were
	// observed.
	ParallelWorkers   Counter
	MorselsProcessed  Counter
	MergeBacklog      Gauge
	SourceStatsHits   Counter
	SourceStatsMisses Counter

	// Federation counters (internal/xqeval partition.go): FederatedScans
	// counts scatter-gather evaluations of partitioned scans, ShardScans
	// the individual shard calls they made, ShardsPruned the shards a
	// pinned shard key let the executor skip entirely, and ShardsSkipped
	// the degraded shards a partial-tolerant scan dropped. SourceScans
	// attributes shard calls to their federated source.
	FederatedScans Counter
	ShardScans     Counter
	ShardsPruned   Counter
	ShardsSkipped  Counter
	SourceScans    LabeledCounter

	// Resilience counters (fault injection and the defenses around it).
	// FaultsInjected counts chaos-layer injections (internal/faultnet);
	// the rest count the production-side reactions: retry attempts beyond
	// the first try, operations rescued by those retries, breaker state
	// transitions to open, calls rejected fast by an open breaker, panics
	// converted to typed errors, and queries aborted by a resource guard.
	// RemoteRetries and RemoteRetrySuccesses are the remote client's retry
	// attempts beyond the first and the operations they rescued.
	FaultsInjected       Counter
	Retries              Counter
	RetrySuccesses       Counter
	BreakerOpens         Counter
	BreakerFastFails     Counter
	PanicsRecovered      Counter
	ResourceLimitHits    Counter
	RemoteRetries        Counter
	RemoteRetrySuccesses Counter

	stageTime [NumStages]Histogram
}

// Global is the process-wide metrics instance the pipeline reports into.
var Global = &Metrics{}

// ObserveStage folds one completed stage event into the per-stage
// histograms (usable directly as a Trace hook).
func (m *Metrics) ObserveStage(ev StageEvent) {
	if ev.Stage < 0 || ev.Stage >= NumStages {
		return
	}
	m.stageTime[ev.Stage].Observe(ev.Duration)
}

// StageTime returns the histogram for one stage.
func (m *Metrics) StageTime(s Stage) *Histogram { return &m.stageTime[s] }

// StageSnapshot is the exported view of one stage's aggregate timing.
type StageSnapshot struct {
	Stage   string
	Count   int64
	TotalNS int64
	MeanNS  int64
	P99NS   int64
}

// Snapshot is a point-in-time copy of a Metrics — the scrape surface for
// embedders (plain values, no atomics).
type Snapshot struct {
	QueriesTranslated    int64
	TranslateErrors      int64
	QueriesExecuted      int64
	RowsMaterialized     int64
	RowsStreamed         int64
	TimeToFirstRowCount  int64
	TimeToFirstRowMeanNS int64
	TimeToFirstRowP99NS  int64
	PeakInFlightRows     int64
	EvalSteps            int64
	PlansBuilt           int64
	HashJoins            int64
	PredicatesPushed     int64
	InvariantsHoisted    int64
	TuplesPruned         int64

	ParallelWorkers   int64
	MorselsProcessed  int64
	MergeBacklog      int64
	SourceStatsHits   int64
	SourceStatsMisses int64

	FederatedScans int64
	ShardScans     int64
	ShardsPruned   int64
	ShardsSkipped  int64
	// SourceScans maps federated source name → shard calls attributed to
	// it; nil when the process never ran a federated scan.
	SourceScans map[string]int64

	FaultsInjected       int64
	Retries              int64
	RetrySuccesses       int64
	BreakerOpens         int64
	BreakerFastFails     int64
	PanicsRecovered      int64
	ResourceLimitHits    int64
	RemoteRetries        int64
	RemoteRetrySuccesses int64

	Stages []StageSnapshot // pipeline order; stages never seen are omitted
}

// Snapshot captures the current values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		QueriesTranslated: m.QueriesTranslated.Load(),
		TranslateErrors:   m.TranslateErrors.Load(),
		QueriesExecuted:   m.QueriesExecuted.Load(),
		RowsMaterialized:  m.RowsMaterialized.Load(),
		RowsStreamed:      m.RowsStreamed.Load(),
		PeakInFlightRows:  m.PeakInFlightRows.Load(),
		EvalSteps:         m.EvalSteps.Load(),
		PlansBuilt:        m.PlansBuilt.Load(),
		HashJoins:         m.PlanHashJoins.Load(),
		PredicatesPushed:  m.PlanPredicatesPushed.Load(),
		InvariantsHoisted: m.PlanInvariantsHoisted.Load(),
		TuplesPruned:      m.TuplesPruned.Load(),

		ParallelWorkers:   m.ParallelWorkers.Load(),
		MorselsProcessed:  m.MorselsProcessed.Load(),
		MergeBacklog:      m.MergeBacklog.Load(),
		SourceStatsHits:   m.SourceStatsHits.Load(),
		SourceStatsMisses: m.SourceStatsMisses.Load(),

		FederatedScans: m.FederatedScans.Load(),
		ShardScans:     m.ShardScans.Load(),
		ShardsPruned:   m.ShardsPruned.Load(),
		ShardsSkipped:  m.ShardsSkipped.Load(),
		SourceScans:    m.SourceScans.Snapshot(),

		FaultsInjected:       m.FaultsInjected.Load(),
		Retries:              m.Retries.Load(),
		RetrySuccesses:       m.RetrySuccesses.Load(),
		BreakerOpens:         m.BreakerOpens.Load(),
		BreakerFastFails:     m.BreakerFastFails.Load(),
		PanicsRecovered:      m.PanicsRecovered.Load(),
		ResourceLimitHits:    m.ResourceLimitHits.Load(),
		RemoteRetries:        m.RemoteRetries.Load(),
		RemoteRetrySuccesses: m.RemoteRetrySuccesses.Load(),
	}
	if ttfr := m.TimeToFirstRow.Snapshot(); ttfr.Count > 0 {
		s.TimeToFirstRowCount = ttfr.Count
		s.TimeToFirstRowMeanNS = ttfr.Mean().Nanoseconds()
		s.TimeToFirstRowP99NS = ttfr.Quantile(0.99).Nanoseconds()
	}
	for st := Stage(0); st < NumStages; st++ {
		hs := m.stageTime[st].Snapshot()
		if hs.Count == 0 {
			continue
		}
		s.Stages = append(s.Stages, StageSnapshot{
			Stage:   st.String(),
			Count:   hs.Count,
			TotalNS: hs.SumNano,
			MeanNS:  hs.Mean().Nanoseconds(),
			P99NS:   hs.Quantile(0.99).Nanoseconds(),
		})
	}
	return s
}

// Render writes the snapshot as the aligned text block `\s` in aqlshell
// prints.
func (s Snapshot) Render(w io.Writer) {
	fmt.Fprintf(w, "queries translated: %d (errors: %d), executed: %d\n",
		s.QueriesTranslated, s.TranslateErrors, s.QueriesExecuted)
	fmt.Fprintf(w, "rows materialized: %d, evaluator steps: %d\n",
		s.RowsMaterialized, s.EvalSteps)
	if s.RowsStreamed > 0 || s.TimeToFirstRowCount > 0 {
		fmt.Fprintf(w, "streaming: rows=%d, first-row mean=%s p99<=%s (%d cursors), peak in-flight rows=%d\n",
			s.RowsStreamed,
			time.Duration(s.TimeToFirstRowMeanNS).Round(time.Microsecond),
			time.Duration(s.TimeToFirstRowP99NS).Round(time.Microsecond),
			s.TimeToFirstRowCount, s.PeakInFlightRows)
	}
	if s.PlansBuilt > 0 {
		fmt.Fprintf(w, "planner: plans=%d hash joins=%d predicates pushed=%d invariants hoisted=%d tuples pruned=%d\n",
			s.PlansBuilt, s.HashJoins, s.PredicatesPushed, s.InvariantsHoisted, s.TuplesPruned)
	}
	if s.SourceStatsHits+s.SourceStatsMisses > 0 {
		fmt.Fprintf(w, "source stats: hits=%d misses=%d\n", s.SourceStatsHits, s.SourceStatsMisses)
	}
	if s.ParallelWorkers > 0 {
		fmt.Fprintf(w, "parallel: workers=%d morsels=%d peak merge backlog=%d\n",
			s.ParallelWorkers, s.MorselsProcessed, s.MergeBacklog)
	}
	if s.FederatedScans > 0 {
		s.RenderFederation(w)
	}
	if s.resilienceActive() {
		s.RenderResilience(w)
	}
	if len(s.Stages) > 0 {
		fmt.Fprintf(w, "%-18s %-8s %-12s %-12s %s\n", "stage", "count", "total", "mean", "p99<=")
		for _, st := range s.Stages {
			fmt.Fprintf(w, "%-18s %-8d %-12s %-12s %s\n", st.Stage, st.Count,
				time.Duration(st.TotalNS).Round(time.Microsecond),
				time.Duration(st.MeanNS).Round(time.Microsecond),
				time.Duration(st.P99NS).Round(time.Microsecond))
		}
	}
}

// RenderFederation writes the federated-scan counter block (aqlshell's
// `\f`), unconditionally — zeros included, so a federation that has never
// scattered is also visible.
func (s Snapshot) RenderFederation(w io.Writer) {
	fmt.Fprintf(w, "federation: scans=%d shard calls=%d pruned=%d skipped=%d\n",
		s.FederatedScans, s.ShardScans, s.ShardsPruned, s.ShardsSkipped)
	if len(s.SourceScans) > 0 {
		names := make([]string, 0, len(s.SourceScans))
		for n := range s.SourceScans {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "federation per-source scans:")
		for _, n := range names {
			fmt.Fprintf(w, " %s=%d", n, s.SourceScans[n])
		}
		fmt.Fprintln(w)
	}
}

// resilienceActive reports whether any resilience counter has moved (the
// block is omitted from Render for fault-free, defense-free processes).
func (s Snapshot) resilienceActive() bool {
	return s.FaultsInjected+s.Retries+s.RetrySuccesses+s.BreakerOpens+
		s.BreakerFastFails+s.PanicsRecovered+s.ResourceLimitHits > 0
}

// RenderResilience writes the resilience counter block (aqlshell's `\r`),
// unconditionally — zeros included, so degradation that has NOT happened
// is also visible.
func (s Snapshot) RenderResilience(w io.Writer) {
	fmt.Fprintf(w, "faults injected: %d, panics recovered: %d, resource-limit aborts: %d\n",
		s.FaultsInjected, s.PanicsRecovered, s.ResourceLimitHits)
	fmt.Fprintf(w, "retries: %d (rescued: %d), breaker: opened=%d fast-fails=%d\n",
		s.Retries, s.RetrySuccesses, s.BreakerOpens, s.BreakerFastFails)
	fmt.Fprintf(w, "remote client: retries=%d (rescued: %d)\n", s.RemoteRetries, s.RemoteRetrySuccesses)
}
