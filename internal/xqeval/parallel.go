package xqeval

import (
	"cmp"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/aqerr"
	"repro/internal/xdm"
)

// parallel.go is the morsel-style parallel executor. An eligible segment —
// a single driving tuple, an invariant non-hash outer for whose source is
// materialized — cuts that source into fixed-size morsels claimed by a
// bounded worker pool. Each worker runs the segment's remaining ops over
// its morsel, buffering results; the reading goroutine merges buffers
// strictly in morsel order, one pull at a time, so the stream is
// byte-identical to the serial path's and ORDER BY barriers see tuples in
// serial order. A window of in-flight morsels (2× workers) bounds
// speculation past the merge point, which keeps FETCH FIRST cheap.
//
// Charges are made once, at the merge point, which keeps the serial
// counters. A worker charges each morsel as serial code does, through the
// same countRows/countTuple checks, against its own counters reset to zero
// at every claim: the morsel's charge at any row is at most the serial one
// there, so a worker-side limit trip proves serial execution trips at or
// before that row. It only ends the morsel and cancels its siblings. Any
// morsel whose charges would cross a limit at its serial position, that hit
// another guard (MaxDepth), or that a sibling's cancellation truncated is
// re-run single-threaded against the serial counters: everything it reads
// is immutable, so the re-run is the serial execution of that morsel. A
// morsel's steps are charged when the merge leaves it (retired, failed, or
// stopped in), and a build the morsels share (a per-evaluation hash table,
// a hoisted filter operand) with the first merged morsel that read it,
// whichever worker built it (buildCharge). So rows delivered, the error
// surfaced and the counters are the serial path's on success, on limit
// trips and on evaluation errors; a FETCH FIRST stop or an early close
// charges its rows and tuples exactly and the stopped morsel's steps
// whole, on every run alike. External cancellation, racy in both paths, is
// the only latitude left.

// The morsel executor decides fan-out itself, as a dispatcher does: no
// caller configures it. A segment whose source holds at least
// minParallelItems items is cut into morsels of morselSize items, run by up
// to GOMAXPROCS workers; GOMAXPROCS=1 is the serial path.
const (
	morselSize       = 1024
	minParallelItems = 4096
)

// fanOut is the executor's shape for one segment: workers, items per
// morsel, and the smallest source worth fanning out.
type fanOut struct{ workers, morselSize, minItems int }

// forcedFanOut maps an *Engine to the fanOut ForceFanOutForTest installed.
// Nothing outside tests stores into it, so the default decision reads an
// empty map.
var forcedFanOut sync.Map

// ForceFanOutForTest makes e fan out with the given shape, so tests can run
// the morsel executor on demo-sized data: workers per segment (0 reads
// GOMAXPROCS, 1 is serial), items per morsel and the smallest source that
// fans out (0 keeps the defaults). All zeros restore the defaults.
func ForceFanOutForTest(e *Engine, workers, morsel, minItems int) {
	if workers == 0 && morsel == 0 && minItems == 0 {
		forcedFanOut.Delete(e)
		return
	}
	forcedFanOut.Store(e, fanOut{workers, cmp.Or(morsel, morselSize), cmp.Or(minItems, minParallelItems)})
}

// fanOutFor decides whether e fans out a source of n items, and how. The
// row count is checked before GOMAXPROCS is read, so a small scan takes no
// runtime lock.
func fanOutFor(e *Engine, n int) (fanOut, bool) {
	f := fanOut{morselSize: morselSize, minItems: minParallelItems}
	if v, ok := forcedFanOut.Load(e); ok {
		f = v.(fanOut)
	}
	if n < f.minItems {
		return f, false
	}
	if f.workers == 0 {
		f.workers = runtime.GOMAXPROCS(0)
	}
	return f, f.workers > 1
}

// canParallel reports whether one segment, prepared, qualifies for morsel
// execution. The shape requirements: exactly one driving tuple (so morsels
// partition one scan, not a cross product), an invariant plain for as the
// first op (prepare materialized its source), at least minParallelItems of
// it, a live evaluation (counters present), and not already inside a
// parallel region (no nested fan-out).
func (ex *flworExec) canParallel(ops []planOp, tuples []*scope) bool {
	if len(tuples) != 1 || len(ops) == 0 || ops[0].kind != opKindFor || !ops[0].invariant || ops[0].hash != nil {
		return false
	}
	eval := tuples[0].st
	if eval.engine == nil || eval.counters == nil || eval.counters.worker {
		return false
	}
	_, ok := fanOutFor(eval.engine, len(ex.states[ops[0].stateIdx].seq))
	return ok
}

// morselResult is one morsel's buffered output: emitted values on the final
// segment (a row program's text rows back to back, batchRows to a string),
// surviving tuple scopes on a barrier segment, and the first error the
// morsel hit (processing stops there, so vals/texts/tups hold the morsel's
// pre-error prefix). The charge ledger — how many rows, tuples, steps and
// pruned tuples the morsel charged in total, the running row and tuple
// counts at the moment each row was buffered, and the shared builds it
// read — is what lets the merge loop advance the serial counters exactly,
// including through a mid-morsel FETCH FIRST stop.
type morselResult struct {
	vals  []xdm.Sequence
	texts []string
	tups  []*scope
	err   error

	rowsCharged, tuplesCharged, stepsCharged, prunedCharged int64
	chargedAt                                               []morselCharge
	builds                                                  []*buildCharge
}

// morselCharge is the morsel's running row/tuple charge once a row was
// buffered, and where its text ends in its string. A row's own row charge
// is not its length: a fused text row charges the RECORD and every token
// it stands for.
type morselCharge struct {
	rows, tuples int64
	end          int
}

// merge is one fan-out of a segment's outer scan to morsel workers, seen
// from its merge point: the caller pulls the merged rows strictly in morsel
// order — next returns the index in r of the next one — so the stream is
// exactly the serial one; a barrier segment collects its tuples. Each pull
// waits only for the morsel it needs, the workers running ahead within the
// window meanwhile. join tears the pool down, once.
type merge struct {
	r       *morselResult // the morsel being handed out
	i       int           // rows of r handed out
	tups    []*scope      // the tuples of the morsels merged
	next    func() (int, error)
	collect func() ([]*scope, error)
	join    func()
}

// fanOut starts ops[0]'s materialized source on morsel workers. With
// final=true each surviving tuple's return value (a row program's text
// row) is buffered for next; otherwise the surviving scopes are buffered
// for collect, which re-homes them on the caller's state: execution is
// single-threaded past the fan-in (cells bound off a head take its state
// pointer, and no cell reads its parent's). The workers run on a copy of
// the execution's shared state, so a materializing caller's own stays on
// its stack.
func (ex *flworExec) fanOut(ops []planOp, base *scope, final bool) *merge {
	wex := &flworExec{fp: ex.fp, states: ex.states, prog: ex.prog}
	seq := ex.states[ops[0].stateIdx].seq
	st := base.st
	f, _ := fanOutFor(st.engine, len(seq))
	num := (len(seq) + f.morselSize - 1) / f.morselSize
	workers := min(f.workers, num)
	window := min(workers*2, num)
	parentCtx := cmp.Or(st.goCtx, context.Background())
	workCtx, cancel := context.WithCancel(parentCtx)
	morsel := func(m int, ws *scope, drift []morselCharge) *morselResult {
		r := &morselResult{}
		wex.runMorsel(ops, ws, seq, m*f.morselSize, min((m+1)*f.morselSize, len(seq)), final, r, drift)
		return r
	}

	results := make([]*morselResult, num)
	done := make([]chan struct{}, num)
	for i := range done {
		done[i] = make(chan struct{})
	}
	// tokens is the speculation window: a worker takes one to claim a
	// morsel, the merger returns it when that morsel is merged. Claims are
	// strictly ascending, so the set of claimed morsels is always a prefix
	// of [0, num).
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	var claim, completed atomic.Int64
	st.engine.m.workers.Add(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := &evalCounters{worker: true}
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
				r := morsel(m, ws, nil)
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

	// counters are the caller's, the serial counters: they advance only
	// here, so morsels discarded past a stop or an error charge nothing.
	counters := st.counters
	// leave charges the steps of a morsel the merge is done with, and the
	// shared builds it read that no earlier morsel paid.
	leave := func(r *morselResult) {
		counters.steps += r.stepsCharged
		counters.pruned += r.prunedCharged
		for _, b := range r.builds {
			counters.pay(b)
		}
	}
	g := &merge{}
	joined := false
	g.join = func() {
		if joined {
			return
		}
		joined = true
		cancel()
		wg.Wait()
		if g.r != nil {
			leave(g.r)
			g.r = nil
		}
	}
	lim := st.limits
	over := func(rows, tuples int64) bool {
		return lim.MaxRows > 0 && rows > lim.MaxRows || lim.MaxTuples > 0 && tuples > lim.MaxTuples
	}
	// rerun runs morsel m single-threaded from the serial counts given.
	rerun := func(m int, rows, tuples int64, drift []morselCharge) *morselResult {
		return morsel(m, base.on(parentCtx, &evalCounters{rows: rows, tuples: tuples}), drift)
	}

	// The morsel being merged is m. Its charges are added to the serial
	// counts rowBase/tupleBase, those at its start rows0/tuples0; its last
	// row handed out is pending until the caller pulls again, and drift
	// is what the caller charged after each.
	m := 0
	var rowBase, tupleBase, rows0, tuples0 int64
	var drift []morselCharge
	pending := false
	// advance makes the next morsel the one being merged, re-run serially
	// if the header's rule says so; false after the last, with the pool
	// joined. Under external cancellation a re-run aborts on its first
	// cancel check.
	advance := func() (bool, error) {
		if m == num {
			g.join()
			return false, nil
		}
		if !joined {
			select {
			case <-done[m]:
			case <-workCtx.Done():
				// The pool is winding down — external cancellation, or a
				// worker cancelled its siblings after an error. Unclaimed
				// morsels will never close their done channel, so blocking
				// on done[m] could hang a cancelled query forever. Settle
				// the workers instead: after the join every claimed
				// morsel's result is final, and the merge continues
				// deterministically over what was actually produced.
				g.join()
			}
		}
		r := results[m]
		if r == nil {
			// Only reachable after join. Claims are strictly ascending and
			// a worker abandons the claim loop only on cancellation, so a
			// nil slot means the pool observed cancellation before any
			// worker reached morsel m — and any worker error would sit at
			// a claimed, hence earlier, slot the merge has already
			// returned at. The cancellation is therefore external; surface
			// the caller's context error.
			return false, cmp.Or(parentCtx.Err(), context.Canceled)
		}
		rowBase, tupleBase, drift, g.i = counters.rows, counters.tuples, nil, 0
		rows0, tuples0 = rowBase, tupleBase
		if isContextErr(r.err) || isLimitErr(r.err) || over(rowBase+r.rowsCharged, tupleBase+r.tuplesCharged) {
			r = rerun(m, rowBase, tupleBase, nil)
		}
		g.r = r
		return true, nil
	}
	// retire ends the merged morsel, whose row and tuple charges are in:
	// its steps, then its error or the window's token back.
	retire := func() error {
		r := g.r
		g.r = nil
		leave(r)
		if r.err != nil {
			return r.err
		}
		g.tups = append(g.tups, r.tups...)
		results[m] = nil
		m++
		st.engine.m.morsels.Inc()
		st.engine.m.backlog.SetMax(completed.Load() - int64(m))
		if !joined {
			tokens <- struct{}{}
		}
		return nil
	}
	// collect merges a barrier segment's morsels, which hold tuples and
	// no rows.
	g.collect = func() ([]*scope, error) {
		defer g.join()
		_, err := g.next()
		for _, t := range g.tups {
			t.st = st
		}
		return g.tups, err
	}
	// next advances the serial counters per row so a stop (a FETCH FIRST
	// countdown, a reader that closes) leaves them exactly where serial
	// execution would have stopped charging, and then past the whole
	// morsel. The caller may charge too between pulls — the record source
	// encodes each row on this goroutine, against the caller's counters —
	// and what it adds (drift, per row) is serial work the later rows are
	// charged on top of. Once that pushes a row's own charges past a limit,
	// serial execution trips producing it: the morsel is re-run serially,
	// replaying the drift, to trip there.
	g.next = func() (int, error) {
		for {
			if g.r == nil {
				if ok, err := advance(); !ok {
					return -1, err
				}
			}
			r := g.r
			if pending {
				pending = false
				at := r.chargedAt[g.i-1]
				if d := (morselCharge{rows: counters.rows - rowBase - at.rows, tuples: counters.tuples - tupleBase - at.tuples}); drift != nil || d != (morselCharge{}) {
					drift = append(append(drift, make([]morselCharge, g.i-1-len(drift))...), d)
				}
				rowBase, tupleBase = counters.rows-at.rows, counters.tuples-at.tuples
			}
			if g.i < len(r.chargedAt) {
				at := r.chargedAt[g.i]
				if drift == nil || !over(rowBase+at.rows, tupleBase+at.tuples) {
					counters.rows, counters.tuples = rowBase+at.rows, tupleBase+at.tuples
					g.i++
					pending = true
					return g.i - 1, nil
				}
			} else if drift == nil || !over(rowBase+r.rowsCharged, tupleBase+r.tuplesCharged) {
				counters.rows, counters.tuples = rowBase+r.rowsCharged, tupleBase+r.tuplesCharged
				if err := retire(); err != nil {
					return -1, err
				}
				continue
			}
			g.r = rerun(m, rows0, tuples0, drift)
			counters.rows, counters.tuples = rows0+g.r.rowsCharged, tuples0+g.r.tuplesCharged
			if err := retire(); err != nil {
				return -1, err
			}
		}
	}
	return g
}

// pools are the fan-outs row sources started (rowsOf), which their
// reader joins once it stops pulling.
type pools []*merge

func (ps *pools) join() {
	for _, g := range *ps {
		g.join()
	}
	*ps = nil
}

// fill writes up to n merged text rows to w as substrings of their
// morsel's texts. A batch's rows share one string, so it ends where the
// next row starts another text.
func (g *merge) fill(w *rowWriter, n int) error {
	for w.n() < n {
		if w.n() > 0 && (g.r == nil || g.i%batchRows == 0 || g.i == len(g.r.chargedAt)) {
			return nil
		}
		i, err := g.next()
		if i < 0 {
			return err
		}
		from := 0
		if i%batchRows > 0 {
			from = g.r.chargedAt[i-1].end
		}
		w.endIn(g.r.texts[i/batchRows], from, g.r.chargedAt[i].end)
	}
	return nil
}

// runMorsel processes outer-scan items [start,end) through ops[1:],
// buffering into r and stopping at the first error. ws's counters double as
// the charge ledger: the deltas accumulated here, and the shared builds
// read (noted on r while it runs), are what the merge loop replays against
// the serial counters. The same code serves the worker pass (row and tuple
// counters starting at zero) and the merge-time re-runs (counters starting
// at the serial counts), which add drift[i] — what handing out row i
// charged — once row i is buffered.
func (ex *flworExec) runMorsel(ops []planOp, ws *scope, seq xdm.Sequence, start, end int, final bool, r *morselResult, drift []morselCharge) {
	counters := ws.st.counters
	rows0, tups0, steps0, pruned0 := counters.rows, counters.tuples, counters.steps, counters.pruned
	counters.morsel = r
	defer func() {
		counters.morsel = nil
		r.rowsCharged = counters.rows - rows0
		r.tuplesCharged = counters.tuples - tups0
		r.stepsCharged = counters.steps - steps0
		r.prunedCharged = counters.pruned - pruned0
	}()
	// A row program's rows go to a scratch buffer and are copied out
	// exactly, batchRows to a string: no estimate sizes a morsel's text.
	var text []byte
	if final {
		// Sized once: each item emits one row unless a later for fans out.
		r.chargedAt = make([]morselCharge, 0, end-start)
		if ex.prog != nil {
			text = make([]byte, 0, 64*batchRows)
			defer func() { r.texts = append(r.texts, string(text)) }()
		} else {
			r.vals = make([]xdm.Sequence, 0, end-start)
		}
	}
	// sink buffers one surviving tuple. A row is charged before it is
	// buffered — never buffered without having been counted — and the
	// watermarks let the merger advance the serial counters row by row.
	sink := func(t *scope) error {
		if !final {
			r.tups = append(r.tups, t)
			return nil
		}
		if ex.prog != nil {
			if err := ex.prog.run(t, &text); err != nil {
				return err
			}
		} else {
			v, err := ex.finalValue(t)
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
	// The call's own iterator and cells: each worker and re-run binds in
	// its own.
	var buf [4]opIter
	it := ex.iter(ops[1:], final, buf[:], nil)
	var cell, at *scope
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
		nt := it.bind(&cell, ws, op.forClause.Var, nil, seq[idx])
		if op.forClause.At != "" {
			nt = it.bind(&at, nt, op.forClause.At, nil, xdm.Integer(idx+1))
		}
		it.enter(0, nt)
		for {
			t, err := ex.pull(&it)
			if err == nil && t != nil {
				err = sink(t)
			}
			if err != nil {
				r.err = err
				return
			}
			if t == nil {
				break
			}
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
