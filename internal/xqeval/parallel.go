package xqeval

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/aqerr"
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
// Resource limits are enforced once, at the merge point, which keeps the
// serial counters: exactly what serial execution would have charged for
// everything merged so far. A worker charges each morsel as serial code
// does, through the same countRows/countTuple checks, but against its own
// counters reset to zero at every claim. The morsel's charge at any row is
// therefore at most the serial charge at that row (serial adds everything
// merged before it), so a worker-side trip proves serial execution trips
// at or before that row: it is an ordinary error that ends the morsel and
// cancels its siblings, and it is never surfaced or counted as is. Any
// morsel whose charges would cross a limit at its serial position — which
// includes every morsel that tripped — any morsel that hit another guard
// (MaxDepth), and any morsel truncated by a sibling's cancellation is
// re-run single-threaded against the serial counters
// (everything it reads is immutable, so the re-run IS the serial execution
// of that morsel, at the cost of re-invoking its source calls). A worker
// never charges more than the limit in one morsel, so a limit bounds the
// wasted speculative work at window × the limit. The result: rows
// delivered, the error surfaced, and the counters folded back into the
// caller are all byte-identical to the serial path, on success, on limit
// trips, on evaluation errors, and under FETCH FIRST — the only latitude
// left is external cancellation, whose timing is inherently racy in both
// paths.

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
	eval := tuples[0].st
	if eval.engine == nil || eval.counters == nil || eval.counters.worker {
		return ExecConfig{}, false
	}
	if len(ops) == 0 || ops[0].kind != opKindFor || !ops[0].invariant || ops[0].hash != nil {
		return ExecConfig{}, false
	}
	st := &ex.states[ops[0].stateIdx]
	if !st.done {
		return ExecConfig{}, false
	}
	cfg := eval.engine.Exec()
	if cfg.Workers <= 1 || len(st.seq) < cfg.MinParallelItems {
		return ExecConfig{}, false
	}
	return cfg, true
}

// morselResult is one morsel's buffered output: emitted values on the final
// segment (a row program's text rows back to back, batchRows to a string),
// surviving tuple scopes on a barrier segment, and the first error the
// morsel hit (processing stops there, so vals/texts/tups hold the morsel's
// pre-error prefix). The charge ledger — how many rows and tuples the
// morsel charged in total, and the running counts at the moment each row
// was buffered — is what lets the merge loop advance the serial counters
// exactly, including through a mid-morsel FETCH FIRST stop.
type morselResult struct {
	vals  []xdm.Sequence
	texts []string
	tups  []*scope
	err   error

	rowsCharged   int64
	tuplesCharged int64
	chargedAt     []morselCharge
}

// morselCharge is the morsel's running row/tuple charge once a row was
// buffered, and where its text ends in its string. A row's own row charge
// is not its length: a fused text row charges the RECORD and every token
// it stands for.
type morselCharge struct {
	rows, tuples int64
	end          int
}

// runParallel fans ops[0]'s materialized source out to morsel workers.
// With final=true each surviving tuple's return value is buffered and the
// merger forwards buffers to emit in morsel order; otherwise the surviving
// scopes are collected and returned (the caller's barrier input), re-homed
// on the caller's state since execution is single-threaded again from
// there.
func (ex *flworExec) runParallel(ops []planOp, base *scope, cfg ExecConfig, final bool, emit func(xdm.Sequence) error) ([]*scope, error) {
	op := &ops[0]
	seq := ex.states[op.stateIdx].seq
	num := (len(seq) + cfg.MorselSize - 1) / cfg.MorselSize
	workers := min(cfg.Workers, num)
	window := min(workers*2, num)

	st := base.st
	parentCtx := st.goCtx
	if parentCtx == nil {
		parentCtx = context.Background()
	}
	workCtx, cancel := context.WithCancel(parentCtx)

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

	st.engine.m.workers.Add(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := &evalCounters{worker: true}
			defer func() {
				workerSteps.Add(wc.steps)
				workerPruned.Add(wc.pruned)
			}()
			ws := base.on(workCtx, wc)
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
				wc.rows, wc.tuples = 0, 0
				r := &morselResult{}
				ex.runMorsel(ops, ws, seq, m*cfg.MorselSize, min((m+1)*cfg.MorselSize, len(seq)), final, r, nil)
				results[m] = r
				close(done[m])
				completed.Add(1)
				if r.err != nil {
					// Serial execution stops at or before this error — a
					// limit trip included — so no later morsel can matter:
					// cancel siblings promptly; the merger decides what
					// surfaces.
					cancel()
					return
				}
			}
		}()
	}

	// serRows/serTuples are the serial counters: exactly what the serial
	// path would have charged for everything merged so far. They advance
	// only at the merge point, so charges by morsels that are discarded
	// (past a FETCH FIRST stop, beyond an error) are refunded for free, and
	// they are what the caller's counters hold on every exit path.
	counters := st.counters
	serRows, serTuples := counters.rows, counters.tuples
	defer func() { counters.rows, counters.tuples = serRows, serTuples }()

	// join tears the pool down and folds the workers' step and prune counts
	// into the caller's counters.
	joined := false
	join := func() {
		if joined {
			return
		}
		joined = true
		cancel()
		wg.Wait()
		counters.steps += workerSteps.Load()
		counters.pruned += workerPruned.Load()
	}
	defer join()

	// flush hands one morsel's buffered rows in order to emit, or to the
	// stream's writer as substrings of the morsel's texts, advancing the
	// serial counters per row so an early stop (the FETCH FIRST limiter's
	// sentinel coming back, a cursor-side abort) leaves them exactly where
	// serial execution would have stopped charging, and then past the
	// whole morsel. emit may charge too — the record source encodes each
	// row on this goroutine, against the caller's counters — so those hold
	// the serial count while it runs, and what it adds (drift, per row) is
	// serial work the later rows are charged on top of. Once that pushes a
	// row's own charges past a limit, serial execution trips producing it:
	// the morsel is re-run serially, replaying the drift, to trip there.
	w := ex.w
	lim := st.limits
	over := func(rows, tuples int64) bool {
		return lim.MaxRows > 0 && rows > lim.MaxRows || lim.MaxTuples > 0 && tuples > lim.MaxTuples
	}
	// rerun runs morsel m single-threaded from the serial counts given.
	rerun := func(m int, rows, tuples int64, drift []morselCharge) *morselResult {
		rc := &evalCounters{rows: rows, tuples: tuples}
		r := &morselResult{}
		ex.runMorsel(ops, base.on(parentCtx, rc), seq, m*cfg.MorselSize, min((m+1)*cfg.MorselSize, len(seq)), final, r, drift)
		counters.steps += rc.steps
		counters.pruned += rc.pruned
		return r
	}
	flush := func(r *morselResult, m int, rowBase, tupleBase int64) error {
		rows0, tuples0 := rowBase, tupleBase
		var drift []morselCharge
		replay := func() error {
			rr := rerun(m, rows0, tuples0, drift)
			serRows, serTuples = rows0+rr.rowsCharged, tuples0+rr.tuplesCharged
			return rr.err
		}
		for i, at := range r.chargedAt {
			if drift != nil && over(rowBase+at.rows, tupleBase+at.tuples) {
				return replay()
			}
			counters.rows, counters.tuples = rowBase+at.rows, tupleBase+at.tuples
			var err error
			if ex.prog != nil {
				from := 0
				if i%batchRows > 0 {
					from = r.chargedAt[i-1].end
				} else {
					err = w.flush() // a batch's rows share one string
				}
				if err == nil {
					err = w.endIn(r.texts[i/batchRows], from, at.end)
				}
			} else {
				err = emit(r.vals[i])
			}
			if d := (morselCharge{rows: counters.rows - rowBase - at.rows, tuples: counters.tuples - tupleBase - at.tuples}); drift != nil || d != (morselCharge{}) {
				drift = append(append(drift, make([]morselCharge, i-len(drift))...), d)
			}
			serRows, serTuples = counters.rows, counters.tuples
			rowBase, tupleBase = serRows-at.rows, serTuples-at.tuples
			if err != nil {
				return err
			}
		}
		if drift != nil && over(rowBase+r.rowsCharged, tupleBase+r.tuplesCharged) {
			return replay()
		}
		serRows, serTuples = rowBase+r.rowsCharged, tupleBase+r.tuplesCharged
		if ex.prog != nil {
			return w.flush()
		}
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
				// worker cancelled its siblings after an error. Unclaimed
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
			// reached morsel m — and any worker error would sit at a claimed,
			// hence earlier, slot the merge has already returned at. The
			// cancellation is therefore external; surface the caller's
			// context error.
			if err := parentCtx.Err(); err != nil {
				return nil, err
			}
			return nil, context.Canceled
		}

		// A clean result, or an evaluation error, is exactly what serial
		// execution produced for this morsel — unless its charges cross a
		// resource limit at its serial position (every worker-side trip
		// does), the worker hit a limit, or the pool's cancellation
		// truncated it. Those are re-run single-threaded against the serial
		// counters: everything the morsel reads — the source sequence,
		// invariant states, hash build tables — is immutable, so the re-run
		// is the serial execution of the morsel, trips at the exact serial
		// row, and is safe while siblings still speculate. Under external
		// cancellation the re-run aborts on its first cancel check.
		rowBase, tupleBase := serRows, serTuples
		if isContextErr(r.err) || isLimitErr(r.err) || over(serRows+r.rowsCharged, serTuples+r.tuplesCharged) {
			r = rerun(m, serRows, serTuples, nil)
		}
		if final {
			// A stop here — the FETCH FIRST sentinel included — lands
			// before any error later in the morsel, as in serial execution.
			if err := flush(r, m, rowBase, tupleBase); err != nil {
				return nil, err
			}
		} else {
			collected = append(collected, r.tups...)
			serRows, serTuples = rowBase+r.rowsCharged, tupleBase+r.tuplesCharged
		}
		if r.err != nil {
			return nil, r.err
		}

		results[m] = nil
		st.engine.m.morsels.Inc()
		st.engine.m.backlog.SetMax(completed.Load() - int64(m+1))
		if !joined {
			tokens <- struct{}{}
		}
	}
	join()
	if !final {
		// Execution is single-threaded past the fan-in: re-home the
		// surviving tuples on the caller's state (cells bound off a head
		// take its state pointer, and no cell reads its parent's).
		for _, t := range collected {
			t.st = st
		}
	}
	return collected, nil
}

// runMorsel processes outer-scan items [start,end) through ops[1:],
// buffering into r and stopping at the first error. ws's counters double as
// the charge ledger: the deltas accumulated here are what the merge loop
// replays against the serial counters. The same code serves the worker
// pass (counters starting at zero) and the merge-time re-runs (counters
// starting at the serial counts), which add drift[i] — what emitting row i
// charged — once row i is buffered.
func (ex *flworExec) runMorsel(ops []planOp, ws *scope, seq xdm.Sequence, start, end int, final bool, r *morselResult, drift []morselCharge) {
	counters := ws.st.counters
	rows0, tups0 := counters.rows, counters.tuples
	defer func() {
		r.rowsCharged = counters.rows - rows0
		r.tuplesCharged = counters.tuples - tups0
	}()
	var sink tupleSink
	var buf [16]*scope
	var cs cells // the call's own: each worker and re-run binds in its own
	if final {
		cs = ex.cells(ops, &buf)
		// Sized once: each item emits one row unless a later for fans out.
		r.chargedAt = make([]morselCharge, 0, end-start)
		// A row program's rows go to a scratch buffer and are copied out
		// exactly, batchRows to a string: no estimate sizes a morsel's text.
		var text []byte
		if ex.prog != nil {
			text = make([]byte, 0, 64*batchRows)
			defer func() { r.texts = append(r.texts, string(text)) }()
		} else {
			r.vals = make([]xdm.Sequence, 0, end-start)
		}
		sink = func(t2 *scope) error {
			// A row is charged before it is buffered — never buffered
			// without having been counted — and the watermarks let the
			// merger advance the serial counters row by row.
			if ex.prog != nil {
				if err := ex.prog.run(t2, &text); err != nil {
					return err
				}
			} else {
				v, err := ex.finalValue(t2)
				if err != nil {
					return err
				}
				r.vals = append(r.vals, v)
			}
			r.chargedAt = append(r.chargedAt, morselCharge{counters.rows - rows0, counters.tuples - tups0, len(text)})
			if i := len(r.chargedAt) - 1; i < len(drift) {
				counters.rows += drift[i].rows
				counters.tuples += drift[i].tuples
			}
			if ex.prog != nil && len(r.chargedAt)%batchRows == 0 {
				r.texts, text = append(r.texts, string(text)), text[:0]
			}
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
		nt := cs.bind(0, ws, op.forClause.Var, nil, seq[idx])
		if op.forClause.At != "" {
			nt = cs.bind(1, nt, op.forClause.At, nil, xdm.Integer(idx+1))
		}
		if err := ex.feed(ops, 1, nt, sink, cs); err != nil {
			r.err = err
			return
		}
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func isLimitErr(err error) bool {
	var qe *aqerr.QueryError
	return errors.As(err, &qe) && qe.Kind == aqerr.KindResourceLimit
}
