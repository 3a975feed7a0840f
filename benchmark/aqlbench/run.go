package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phase is one measured closed loop: every caller issues its next op only
// after the previous one returned, until the deadline.
type phase struct {
	ops, failed int
	rows        int64
	wall        time.Duration
	busy        time.Duration // Σ op latencies over all callers
	lat, first  []float64     // ms, every op of every caller
	byKind      [numKinds][]float64
	mallocs     uint64
	bytes       uint64
	gcPause     time.Duration
}

// nextOp numbers traced ops across callers; it is the spans' op id.
var nextOp atomic.Int32

// opRecord is one finished op in a caller's log.
type opRecord struct {
	lat, first int64 // ns
	kind       int8
	ok         bool
	rows       int32
}

// maxOps bounds one caller's log; 60 s at the fastest workload's rate
// needs a third of it.
const maxOps = 1 << 20

func runPhase(e *env, d time.Duration, traced bool) phase {
	logs := make([][]opRecord, e.callers)
	for c := range logs {
		logs[c] = offheap[opRecord](maxOps)
		defer release(logs[c])
	}
	done := make([]int, e.callers)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < e.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < maxOps; n++ {
				opID := int32(-1)
				if traced {
					opID = nextOp.Add(1)
				}
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				res := e.op(c, n, opID)
				logs[c][n] = opRecord{int64(time.Since(t0)), int64(res.first), int8(res.kind), res.ok, int32(res.rows)}
				done[c] = n + 1
			}
		}(c)
	}
	wg.Wait()
	ph := phase{wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	ph.mallocs, ph.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	ph.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for c, l := range logs {
		for _, r := range l[:done[c]] {
			ph.ops++
			ph.rows += int64(r.rows)
			ph.busy += time.Duration(r.lat)
			ph.lat = append(ph.lat, ms(time.Duration(r.lat)))
			ph.first = append(ph.first, ms(time.Duration(r.first)))
			ph.byKind[r.kind] = append(ph.byKind[r.kind], ms(time.Duration(r.lat)))
			if !r.ok {
				ph.failed++
			}
		}
	}
	return ph
}

// merge pools two phases of the same workload.
func (a phase) merge(b phase) phase {
	a.ops, a.failed, a.rows = a.ops+b.ops, a.failed+b.failed, a.rows+b.rows
	a.wall, a.busy = a.wall+b.wall, a.busy+b.busy
	a.lat, a.first = append(a.lat, b.lat...), append(a.first, b.first...)
	for k := range a.byKind {
		a.byKind[k] = append(a.byKind[k], b.byKind[k]...)
	}
	a.mallocs, a.bytes, a.gcPause = a.mallocs+b.mallocs, a.bytes+b.bytes, a.gcPause+b.gcPause
	return a
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(ns int64) float64        { return float64(ns) / 1e3 }

// percentile is the nearest-rank percentile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// value is one reported measurement.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // omitted on the driver's result line
}

// endToEndMetrics turns an untraced phase into the end-to-end metrics.
// Every timing is pooled over all measured ops of all callers.
func endToEndMetrics(ph phase, setups []float64) map[string]value {
	n, wall := float64(ph.ops), ph.wall.Seconds()
	return map[string]value{
		"query_p50_ms":          {percentile(ph.lat, 0.50), "ms", ph.ops},
		"query_p90_ms":          {percentile(ph.lat, 0.90), "ms", ph.ops},
		"first_row_p50_ms":      {percentile(ph.first, 0.50), "ms", ph.ops},
		"queries_per_s":         {n / wall, "1/s", ph.ops},
		"rows_per_s":            {float64(ph.rows) / wall, "1/s", ph.ops},
		"allocs_per_query":      {float64(ph.mallocs) / n, "count", ph.ops},
		"alloc_bytes_per_query": {float64(ph.bytes) / n, "B", ph.ops},
		"setup_s":               {median(setups), "s", len(setups)},
	}
}

// sampler polls heap size and goroutine count while the traced pass runs
// (runtime/metrics reads do not stop the world).
type sampler struct {
	stop           chan struct{}
	done           sync.WaitGroup
	heap, routines uint64
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.heap {
				s.heap = v
			}
			if g := uint64(runtime.NumGoroutine()); g > s.routines {
				s.routines = g
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}
