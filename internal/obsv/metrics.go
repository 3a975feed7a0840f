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

// StageTimes holds one duration histogram per pipeline stage. Its owner
// installs Observe as the Hook of each compile trace it starts, and each
// execution folds its StageClock in.
type StageTimes [NumStages]Histogram

// StageClock is one execution's stage durations, indexed by Stage: a
// fixed record its timer holds by value, so keeping it allocates
// nothing. Set records a stage that ran; StageTimes.Fold observes the
// recorded ones.
type StageClock struct {
	d   [NumStages]time.Duration
	ran [NumStages]bool
}

// Set records stage s's duration.
func (c *StageClock) Set(s Stage, d time.Duration) {
	c.d[s], c.ran[s] = d, true
}

// Fold observes each stage c recorded into its histogram.
func (st *StageTimes) Fold(c *StageClock) {
	for s, ran := range c.ran {
		if ran {
			st[s].Observe(c.d[s])
		}
	}
}

// Observe folds one completed stage event into its stage's histogram.
func (st *StageTimes) Observe(ev StageEvent) {
	if ev.Stage >= 0 && ev.Stage < NumStages {
		st[ev.Stage].Observe(ev.Duration)
	}
}

// Snapshot summarizes the stages that have run, in pipeline order.
func (st *StageTimes) Snapshot() []StageSnapshot {
	var out []StageSnapshot
	for s := Stage(0); s < NumStages; s++ {
		hs := st[s].Snapshot()
		if hs.Count == 0 {
			continue
		}
		out = append(out, StageSnapshot{
			Stage:   s.String(),
			Count:   hs.Count,
			TotalNS: hs.SumNano,
			MeanNS:  hs.Mean().Nanoseconds(),
			P99NS:   hs.Quantile(0.99).Nanoseconds(),
		})
	}
	return out
}

// StageSnapshot is the exported view of one stage's aggregate timing.
type StageSnapshot struct {
	Stage   string
	Count   int64
	TotalNS int64
	MeanNS  int64
	P99NS   int64
}

// Snapshot is a point-in-time copy of one platform's pipeline counters —
// the scrape surface for embedders (plain values, no atomics). No field
// is process-wide: each is read from the object that counts it, so two
// platforms in one process never add into each other's figures.
type Snapshot struct {
	// QueriesTranslated and TranslateErrors count the platform's
	// translations by outcome.
	QueriesTranslated int64
	TranslateErrors   int64
	// The engine counts the rest of this group: evaluations, rows its
	// row cursors delivered (a materialized result is a drained cursor,
	// so every row counts once), the latency to each cursor's first row,
	// the high-water mark of rows buffered between producer and consumer,
	// evaluator steps, plans built and their static decisions, and tuples
	// the planned executor skipped relative to the naive pipeline.
	QueriesExecuted      int64
	Rows                 int64
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

	// Morsel workers spawned, morsels flushed through the ordered merge,
	// the merge backlog's high-water mark, and the planner's statistics
	// lookups (misses mean a plan was built before its sources were
	// observed).
	ParallelWorkers   int64
	MorselsProcessed  int64
	MergeBacklog      int64
	SourceStatsHits   int64
	SourceStatsMisses int64

	// Closed builds (an invariant let's value or a hash build table that
	// reads no parameter) kept with their plans, and the builds skipped
	// for a kept value: one per execution of the FLWOR that would have
	// built it (a nested FLWOR or a morsel each count), not per evaluation.
	KeptBuilds int64
	KeptReuses int64

	// Scatter-gather evaluations of partitioned scans, the shard calls
	// they made, shards a pinned key pruned, and degraded shards a
	// partial-tolerant scan dropped. SourceScans maps federated source
	// name → shard calls attributed to it; nil before any federated scan.
	FederatedScans int64
	ShardScans     int64
	ShardsPruned   int64
	ShardsSkipped  int64
	SourceScans    map[string]int64

	// Faults the platform's injector fired; the defenses' retries beyond
	// the first try, the operations they rescued, and the panics they
	// contained; breaker openings and calls an open breaker failed fast;
	// and evaluations a resource guard aborted.
	FaultsInjected    int64
	Retries           int64
	RetrySuccesses    int64
	BreakerOpens      int64
	BreakerFastFails  int64
	PanicsRecovered   int64
	ResourceLimitHits int64

	Stages []StageSnapshot // pipeline order; stages never seen are omitted
}

// Render writes the snapshot as the aligned text block `\s` in aqlshell
// prints.
func (s Snapshot) Render(w io.Writer) {
	fmt.Fprintf(w, "queries translated: %d (errors: %d), executed: %d\n",
		s.QueriesTranslated, s.TranslateErrors, s.QueriesExecuted)
	fmt.Fprintf(w, "rows: %d, evaluator steps: %d\n", s.Rows, s.EvalSteps)
	if s.TimeToFirstRowCount > 0 {
		fmt.Fprintf(w, "streaming: first-row mean=%s p99<=%s (%d cursors), peak in-flight rows=%d\n",
			time.Duration(s.TimeToFirstRowMeanNS).Round(time.Microsecond),
			time.Duration(s.TimeToFirstRowP99NS).Round(time.Microsecond),
			s.TimeToFirstRowCount, s.PeakInFlightRows)
	}
	if s.PlansBuilt > 0 {
		fmt.Fprintf(w, "planner: plans=%d hash joins=%d predicates pushed=%d invariants hoisted=%d tuples pruned=%d\n",
			s.PlansBuilt, s.HashJoins, s.PredicatesPushed, s.InvariantsHoisted, s.TuplesPruned)
	}
	if s.KeptBuilds > 0 {
		fmt.Fprintf(w, "kept with plans: builds=%d reuses=%d\n", s.KeptBuilds, s.KeptReuses)
	}
	if s.SourceStatsHits+s.SourceStatsMisses > 0 {
		fmt.Fprintf(w, "source stats: hits=%d misses=%d\n", s.SourceStatsHits, s.SourceStatsMisses)
	}
	if s.ParallelWorkers > 0 {
		fmt.Fprintf(w, "parallel: workers=%d morsels=%d peak merge backlog=%d\n",
			s.ParallelWorkers, s.MorselsProcessed, s.MergeBacklog)
	}
	if s.FederatedScans > 0 {
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
	// The resilience block is omitted while no defense has moved.
	if s.FaultsInjected+s.Retries+s.RetrySuccesses+s.BreakerOpens+
		s.BreakerFastFails+s.PanicsRecovered+s.ResourceLimitHits > 0 {
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

// RenderResilience writes the resilience counter block (aqlshell's `\r`),
// unconditionally — zeros included, so degradation that has NOT happened
// is also visible.
func (s Snapshot) RenderResilience(w io.Writer) {
	fmt.Fprintf(w, "faults injected: %d, panics recovered: %d, resource-limit aborts: %d\n",
		s.FaultsInjected, s.PanicsRecovered, s.ResourceLimitHits)
	fmt.Fprintf(w, "retries: %d (rescued: %d), breaker: opened=%d fast-fails=%d\n",
		s.Retries, s.RetrySuccesses, s.BreakerOpens, s.BreakerFastFails)
}
