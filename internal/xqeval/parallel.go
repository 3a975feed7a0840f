package xqeval

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/aqerr"
	"repro/internal/obsv"
	"repro/internal/xdm"
)

// parallel.go is the morsel-style parallel executor. An eligible segment —
// eager plan, a single driving tuple, an invariant non-hash outer for whose
// source is already materialized — partitions that source into fixed-size
// morsels claimed by a bounded worker pool. Each worker runs the segment's
// remaining ops (filters, dependent fors/lets, hash-join probes against the
// shared read-only build tables) over its morsel, buffering results; the
// calling goroutine merges buffers strictly in morsel order, so the emitted
// stream is byte-identical to the serial path's and ORDER BY barriers see
// tuples in the exact serial sequence (the ordered-merge requirement comes
// for free). A window of in-flight morsels (2× workers) bounds speculation
// ahead of the merge point, which is what keeps FETCH FIRST short-circuits
// cheap: when the limiter's stop sentinel comes back through emit, at most
// window × morsel-size items were processed beyond the limit, and the
// shared context cancels every worker promptly.
//
// Resource limits are enforced in two stages. Workers charge a shared
// atomic budget (parCounters) seeded from the evaluation's counters, which
// bounds the total work speculation can buffer: once the budget trips,
// every later speculative charge trips too. But the budget is only a bound,
// not a verdict — it both overcharges (morsels ahead of the merge point
// that a FETCH FIRST short-circuit or an earlier error will discard) and
// undercharges (a late-indexed morsel can run before an earlier one has
// charged) relative to serial order. So a worker-side trip is tentative
// (speculativeLimit), and the merger keeps the authoritative serial
// counters: exactly what serial execution would have charged for everything
// merged so far. Any morsel whose recorded charges would cross a limit at
// its serial position — and any morsel that tripped speculatively or was
// truncated by a sibling's cancellation — is re-run single-threaded against
// those counters (everything it reads is immutable, so the re-run IS the
// serial execution of that morsel, at the cost of re-invoking its source
// calls). The result: rows delivered, the error surfaced, and the counters
// folded back into the caller are all byte-identical to the serial path,
// on success, on limit trips, on evaluation errors, and under FETCH FIRST
// — the only latitude left is external cancellation, whose timing is
// inherently racy in both paths.

// ExecConfig configures parallel query execution. The zero value resolves
// to GOMAXPROCS workers; Workers=1 (or any negative value) forces the
// serial path, which is byte-identical anyway.
type ExecConfig struct {
	// Workers caps the worker pool per parallel segment. 0 resolves to
	// runtime.GOMAXPROCS(0); 1 or less disables parallel execution.
	Workers int
	// MorselSize is the number of outer-scan items per work unit
	// (default 1024). Smaller morsels balance skewed per-item cost at more
	// coordination overhead.
	MorselSize int
	// MinParallelItems is the smallest outer scan worth fanning out
	// (default 4096); below it the serial path always wins.
	MinParallelItems int
	// DisablePartitionPushdown turns off shard pruning and the per-shard
	// filter/projection on partitioned scans (partition.go) — shards are
	// still scattered concurrently, but every shard's full rows flow into
	// the central pipeline. The federation benchmark's on/off toggle.
	DisablePartitionPushdown bool
}

func (c ExecConfig) withDefaults() ExecConfig {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.MorselSize <= 0 {
		c.MorselSize = 1024
	}
	if c.MinParallelItems <= 0 {
		c.MinParallelItems = 4096
	}
	return c
}

// parCounters is the shared row/tuple budget across one parallel segment's
// workers. Seeded from the evaluation's counters before the fan-out, it
// bounds the total work speculation can buffer; it is deliberately NOT
// folded back into the caller — the merge loop's serial counters are the
// authoritative values, so charges by discarded morsels are refunded.
type parCounters struct {
	rows   atomic.Int64
	tuples atomic.Int64
}

// speculativeLimit wraps a MaxRows/MaxTuples error raised against the
// shared speculative budget. The budget counts every worker's charges in
// whatever order they land, so a trip proves only that parallel
// speculation hit the cap — not that serial execution would have. The
// merger treats it as a checkpoint: the morsel is re-run single-threaded
// against the authoritative serial counters, and only a trip in that
// re-run surfaces. A speculativeLimit therefore never crosses the
// executor's boundary.
type speculativeLimit struct{ err error }

func (e *speculativeLimit) Error() string { return e.err.Error() }
func (e *speculativeLimit) Unwrap() error { return e.err }

// speculativeLimitErr builds a tentative budget-trip error. It bypasses
// limitErr on purpose: obsv's ResourceLimitHits counts evaluations a guard
// actually aborted, and a tentative trip may yet be refuted at the merge
// point (the authoritative re-run goes through limitErr if it trips).
func speculativeLimitErr(format string, args ...any) error {
	return &speculativeLimit{aqerr.Errorf(aqerr.KindResourceLimit, "evaluate", format, args...)}
}

func isSpeculativeLimit(err error) bool {
	var s *speculativeLimit
	return errors.As(err, &s)
}

// canParallel reports whether one segment qualifies for morsel execution
// under the engine's installed ExecConfig, returning the resolved config.
// The shape requirements: exactly one driving tuple (so morsels partition
// one scan, not a cross product), an invariant plain for as the first op
// with its source already materialized by prepare (eager plans only), at
// least MinParallelItems of it, a live evaluation (counters present), and
// not already inside a parallel region (no nested fan-out).
func (ex *flworExec) canParallel(ops []planOp, tuples []*scope) (ExecConfig, bool) {
	if !ex.fp.eager || len(tuples) != 1 {
		return ExecConfig{}, false
	}
	base := tuples[0]
	if base.engine == nil || base.counters == nil || base.par != nil {
		return ExecConfig{}, false
	}
	if len(ops) == 0 || ops[0].kind != opKindFor || !ops[0].invariant || ops[0].hash != nil {
		return ExecConfig{}, false
	}
	st := &ex.states[ops[0].stateIdx]
	if !st.done {
		return ExecConfig{}, false
	}
	cfg := base.engine.Exec()
	if cfg.Workers <= 1 || len(st.seq) < cfg.MinParallelItems {
		return ExecConfig{}, false
	}
	return cfg, true
}

// morselResult is one morsel's buffered output: emitted values on the final
// segment, surviving tuple scopes on a barrier segment, and the first
// error the morsel hit (processing stops there, so vals/tups hold the
// morsel's pre-error prefix). The charge ledger — how many rows and tuples
// the morsel charged in total, and the running counts at the moment each
// val was buffered — is what lets the merge loop advance the authoritative
// serial counters exactly, including through a mid-morsel FETCH FIRST stop.
type morselResult struct {
	vals []xdm.Sequence
	tups []*scope
	err  error

	rowsCharged   int64
	tuplesCharged int64
	chargedAt     []morselCharge
}

// morselCharge is the morsel's running row/tuple charge once a val was
// buffered. A val's own row charge is not its length: a fused text row is
// one item that charges the RECORD and every token it stands for.
type morselCharge struct{ rows, tuples int64 }

// runParallel fans ops[0]'s materialized source out to morsel workers.
// With final=true each surviving tuple's return value is buffered and the
// merger forwards buffers to emit in morsel order; otherwise the surviving
// scopes are collected and returned (the caller's barrier input), fixed up
// to the caller's context and counters since execution is single-threaded
// again from there.
func (ex *flworExec) runParallel(ops []planOp, base *scope, cfg ExecConfig, final bool, emit func(xdm.Sequence) error) ([]*scope, error) {
	op := &ops[0]
	seq := ex.states[op.stateIdx].seq
	num := (len(seq) + cfg.MorselSize - 1) / cfg.MorselSize
	workers := min(cfg.Workers, num)
	window := min(workers*2, num)

	parentCtx := base.goCtx
	if parentCtx == nil {
		parentCtx = context.Background()
	}
	workCtx, cancel := context.WithCancel(parentCtx)

	par := &parCounters{}
	par.rows.Store(base.counters.rows)
	par.tuples.Store(base.counters.tuples)

	results := make([]*morselResult, num)
	done := make([]chan struct{}, num)
	for i := range done {
		done[i] = make(chan struct{})
	}
	// tokens is the speculation window: a worker takes one to claim a
	// morsel, the merger returns it when that morsel is flushed. Claims are
	// strictly ascending, so the set of claimed morsels is always a prefix
	// of [0, num).
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	var claim, completed, workerSteps, workerPruned atomic.Int64

	obsv.Global.ParallelWorkers.Add(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := &evalCounters{}
			defer func() {
				workerSteps.Add(wc.steps)
				workerPruned.Add(wc.pruned)
			}()
			ws := *base
			ws.goCtx = workCtx
			ws.counters = wc
			ws.par = par
			for {
				select {
				case <-workCtx.Done():
					return
				case <-tokens:
				}
				m := int(claim.Add(1)) - 1
				if m >= num {
					return
				}
				r := &morselResult{}
				ex.runMorsel(ops, &ws, seq, m*cfg.MorselSize, min((m+1)*cfg.MorselSize, len(seq)), final, r)
				results[m] = r
				close(done[m])
				completed.Add(1)
				if r.err != nil && !isSpeculativeLimit(r.err) {
					// A genuine error: cancel siblings promptly; the merger
					// decides what surfaces. Tentative budget trips must NOT
					// cancel — a tripped budget makes every later speculative
					// charge trip immediately, so the remaining morsels drain
					// cheaply while the merger re-checks serially.
					cancel()
					return
				}
			}
		}()
	}

	// serRows/serTuples are the authoritative serial counters: exactly what
	// the serial path would have charged for everything merged so far. They
	// advance only at the merge point, so charges by morsels that are
	// discarded (past a FETCH FIRST stop, beyond an error) are refunded for
	// free, and join folds them — never the speculative budget — back into
	// the caller's counters.
	serRows := base.counters.rows
	serTuples := base.counters.tuples

	// join tears the pool down and folds worker accounting back into the
	// caller's counters — on every exit path, including mid-merge errors.
	joined := false
	join := func() {
		if joined {
			return
		}
		joined = true
		cancel()
		wg.Wait()
		base.counters.rows = serRows
		base.counters.tuples = serTuples
		base.counters.steps += workerSteps.Load()
		base.counters.pruned += workerPruned.Load()
	}
	defer join()

	// flush hands one morsel's buffered rows to emit in order, advancing
	// the serial counters per row so an early stop (the FETCH FIRST
	// limiter's sentinel coming back through emit, a cursor-side abort)
	// leaves them exactly where serial execution would have stopped
	// charging, and then past the whole morsel. emit may charge too — the
	// unfused text path tokenizes each row on this goroutine, against the
	// caller's counters — so those hold the serial count while it runs,
	// and what it adds is serial work the later rows are charged on top of.
	flush := func(r *morselResult, rowBase, tupleBase int64) error {
		for i, v := range r.vals {
			at := r.chargedAt[i]
			base.counters.rows, base.counters.tuples = rowBase+at.rows, tupleBase+at.tuples
			err := emit(v)
			serRows, serTuples = base.counters.rows, base.counters.tuples
			rowBase, tupleBase = serRows-at.rows, serTuples-at.tuples
			if err != nil {
				return err
			}
		}
		serRows, serTuples = rowBase+r.rowsCharged, tupleBase+r.tuplesCharged
		return nil
	}

	// Merge strictly in morsel order — the emitted stream is exactly the
	// serial one.
	var collected []*scope
	for m := 0; m < num; m++ {
		if !joined {
			select {
			case <-done[m]:
			case <-workCtx.Done():
				// The pool is winding down — external cancellation, or a
				// sibling worker cancelled after a genuine error. Unclaimed
				// morsels will never close their done channel, so blocking
				// on done[m] could hang a cancelled query forever. Settle
				// the workers instead: after the join every claimed morsel's
				// result is final, and the merge continues deterministically
				// over what was actually produced.
				join()
			}
		}
		r := results[m]
		if r == nil {
			// Only reachable after join. Claims are strictly ascending and a
			// worker abandons the claim loop only on cancellation, so a nil
			// slot means the pool observed cancellation before any worker
			// reached morsel m — and any genuine worker error would sit at a
			// claimed, hence earlier, already-merged slot. The cancellation
			// is therefore external; surface the caller's context error.
			if err := parentCtx.Err(); err != nil {
				return nil, err
			}
			return nil, context.Canceled
		}

		rowBase, tupleBase := serRows, serTuples
		rerun := false
		switch {
		case r.err != nil && isSpeculativeLimit(r.err):
			// Tentative budget trip — only the serial counters can tell
			// whether it is real.
			rerun = true
		case r.err != nil && isContextErr(r.err):
			// Truncated by the pool's cancellation, not by its own work.
			// Under external cancellation the re-run aborts on its first
			// cancel check and surfaces the context error; under a
			// sibling's cancel (parent still live) it completes the morsel
			// exactly as serial execution would have, so the rows delivered
			// ahead of the sibling's error match the serial prefix.
			rerun = true
		default:
			// Clean result or genuine error: the buffered prefix is exactly
			// what serial execution produced — unless the morsel's charges
			// cross a resource limit at its serial position. The worker
			// checked them against the shared budget, which can run behind
			// serial order (a late morsel may charge before an earlier one
			// has), so the crossing must be re-found serially to trip at
			// the exact row serial execution trips at.
			lim := base.limits
			rerun = (lim.MaxRows > 0 && serRows+r.rowsCharged > lim.MaxRows) ||
				(lim.MaxTuples > 0 && serTuples+r.tuplesCharged > lim.MaxTuples)
		}

		switch {
		case rerun:
			// Re-run the morsel single-threaded against the authoritative
			// serial counters. Everything it reads — the source sequence,
			// invariant states, hash build tables — is immutable, so this
			// is the serial execution of the morsel, concurrent-safe even
			// while sibling workers are still speculating.
			rc := &evalCounters{rows: serRows, tuples: serTuples}
			rs := *base
			rs.goCtx = parentCtx
			rs.counters = rc
			rs.par = nil
			rr := &morselResult{}
			ex.runMorsel(ops, &rs, seq, m*cfg.MorselSize, min((m+1)*cfg.MorselSize, len(seq)), final, rr)
			base.counters.steps += rc.steps
			base.counters.pruned += rc.pruned
			if final {
				if err := flush(rr, rowBase, tupleBase); err != nil {
					// Includes the FETCH FIRST stop sentinel, which serial
					// execution hits before any error later in the morsel.
					join()
					return nil, err
				}
			} else {
				collected = append(collected, rr.tups...)
				serRows, serTuples = rc.rows, rc.tuples
			}
			if rr.err != nil {
				// Authoritative: the exact error, after the exact row
				// prefix, that serial execution produces.
				join()
				return nil, rr.err
			}

		case r.err != nil:
			// Genuine error with charges inside every limit: the buffered
			// prefix is the serial prefix. Deliver it, then the error —
			// unless a FETCH FIRST stop lands first, which serial execution
			// would also have hit first.
			if final {
				if err := flush(r, rowBase, tupleBase); err != nil {
					join()
					return nil, err
				}
			} else {
				serRows, serTuples = rowBase+r.rowsCharged, tupleBase+r.tuplesCharged
			}
			join()
			return nil, r.err

		default:
			if final {
				if err := flush(r, rowBase, tupleBase); err != nil {
					join()
					return nil, err
				}
			} else {
				collected = append(collected, r.tups...)
				serRows, serTuples = rowBase+r.rowsCharged, tupleBase+r.tuplesCharged
			}
		}

		results[m] = nil
		obsv.Global.MorselsProcessed.Inc()
		obsv.Global.MergeBacklog.SetMax(completed.Load() - int64(m+1))
		if !joined {
			tokens <- struct{}{}
		}
	}
	join()
	if !final {
		// Execution is single-threaded past the fan-in: re-home the
		// surviving scopes on the caller's context and counters (derived
		// scopes copy these fields from the head they are bound off).
		for _, t := range collected {
			t.goCtx = base.goCtx
			t.counters = base.counters
			t.par = nil
		}
	}
	return collected, nil
}

// runMorsel processes outer-scan items [start,end) through ops[1:],
// buffering into r and stopping at the first error. ws.counters doubles as
// the charge ledger: the deltas accumulated here are what the merge loop
// replays against the authoritative serial counters. The same code serves
// the worker pass (ws.par set, charges checked against the shared budget)
// and the merge-time authoritative re-run (ws.par nil, charges checked
// serially).
func (ex *flworExec) runMorsel(ops []planOp, ws *scope, seq xdm.Sequence, start, end int, final bool, r *morselResult) {
	rows0, tups0 := ws.counters.rows, ws.counters.tuples
	defer func() {
		r.rowsCharged = ws.counters.rows - rows0
		r.tuplesCharged = ws.counters.tuples - tups0
	}()
	var sink tupleSink
	if final {
		var buf []byte
		sink = func(t2 *scope) error {
			// finalValue charges before we buffer — a row is never buffered
			// without having been counted — and the watermarks let the
			// merger advance the serial counters row by row.
			v, err := ex.finalValue(t2, &buf)
			if err != nil {
				return err
			}
			r.chargedAt = append(r.chargedAt, morselCharge{ws.counters.rows - rows0, ws.counters.tuples - tups0})
			r.vals = append(r.vals, v)
			return nil
		}
	} else {
		sink = func(t2 *scope) error {
			r.tups = append(r.tups, t2)
			return nil
		}
	}
	op := &ops[0]
	for idx := start; idx < end; idx++ {
		if err := ws.checkCancel(); err != nil {
			r.err = err
			return
		}
		if err := ws.countTuple(); err != nil {
			r.err = err
			return
		}
		nt := ws.bind(op.forClause.Var, xdm.SequenceOf(seq[idx]))
		if op.forClause.At != "" {
			nt = nt.bind(op.forClause.At, xdm.SequenceOf(xdm.Integer(idx+1)))
		}
		if err := ex.feed(ops, 1, nt, sink); err != nil {
			r.err = err
			return
		}
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
