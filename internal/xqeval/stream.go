package xqeval

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// stream.go is the pull side of the evaluator: a Volcano-style cursor over
// the generated query's row stream. The translator always builds results
// through one of two fixed top-level shapes — the XML mode's
// <RECORDSET>{rows}</RECORDSET> constructor, or the §4 text mode's
// fn:string-join over a per-RECORD token FLWOR — and both expose a
// row-producing expression whose items can be emitted one at a time instead
// of materialized into a sequence. planStream recognizes those shapes
// statically (the decomposition rides on the Plan, so compiled-query
// artifacts carry it), and EvalStream runs the row expression through the
// planned executor's existing tuple sink, delivering rows to the consumer
// as they are produced. GROUP BY and ORDER BY remain the only
// materialization points (they are barriers inside the FLWOR pipeline);
// set operations pass through fn-bea:distinct-rows and therefore fall back
// to whole-body evaluation before streaming out.
//
// FETCH FIRST n ROWS ONLY — translated as fn:subsequence(rows, 1, n) —
// short-circuits here: the limiter stops the producing pipeline after n
// rows instead of truncating a finished sequence. Stopping early can
// suppress dynamic errors a full evaluation would have raised in rows the
// consumer never asked for; XQuery §2.3.4 grants exactly that latitude,
// and the differential tests pin value-level equivalence.

// StreamKind classifies how a query body decomposes into a row stream.
type StreamKind int

const (
	// StreamMaterialized means the body has no recognized row-stream shape:
	// the whole body is evaluated first, then its items are emitted.
	StreamMaterialized StreamKind = iota
	// StreamXMLRows is the XML result shape: each emitted chunk is one item
	// of the RECORDSET constructor's content (one RECORD element per row).
	StreamXMLRows
	// StreamTextRows is the §4 text shape: each emitted chunk is one row's
	// delimiter/value token sequence.
	StreamTextRows
)

// String names the kind for EXPLAIN output.
func (k StreamKind) String() string {
	switch k {
	case StreamXMLRows:
		return "xml rows"
	case StreamTextRows:
		return "text rows"
	default:
		return "materialized"
	}
}

// StreamPlan is the static streaming decomposition of one query body,
// computed at plan time and shared by every execution.
type StreamPlan struct {
	Kind StreamKind

	// rows produces the row items (the RECORDSET constructor's enclosed
	// expression); nil when Kind is StreamMaterialized.
	rows xquery.Expr
	// tokenVar/ret replay the text wrapper's per-RECORD token FLWOR: for
	// each streamed RECORD element, ret evaluates with tokenVar bound to it.
	tokenVar string
	ret      xquery.Expr
	// prog is the row program fusing the RECORD constructor with ret
	// (rowprog.go); unfused says why a text-rows plan has none. Both are
	// empty on decompositions made outside buildPlan — the naive path.
	prog    *rowProgram
	unfused string
}

// Streamable reports whether rows can be produced incrementally.
func (sp *StreamPlan) Streamable() bool {
	return sp != nil && sp.Kind != StreamMaterialized
}

// Describe renders the decomposition for the EXPLAIN status footer.
func (sp *StreamPlan) Describe() string {
	if !sp.Streamable() {
		return "materialized (body has no row-stream decomposition)"
	}
	kind := sp.Kind.String()
	switch {
	case sp.prog != nil:
		kind += fmt.Sprintf(", fused: %d columns", len(sp.prog.cols))
	case sp.unfused != "":
		kind += ", unfused: " + sp.unfused
	}
	return "row cursor (" + kind + "); barriers: group by / order by segments materialize"
}

// planStream pattern-matches the translator's two generated top-level
// shapes. Anything else — including hand-written XQuery — degrades to
// StreamMaterialized, which is always correct.
func planStream(body xquery.Expr) *StreamPlan {
	if rows, ok := recordsetRows(body); ok {
		return &StreamPlan{Kind: StreamXMLRows, rows: rows}
	}
	fc, ok := body.(*xquery.FuncCall)
	if !ok || fc.Name != "fn:string-join" || len(fc.Args) != 2 {
		return &StreamPlan{Kind: StreamMaterialized}
	}
	if sep, ok := fc.Args[1].(*xquery.StringLit); !ok || sep.Value != "" {
		return &StreamPlan{Kind: StreamMaterialized}
	}
	f, ok := fc.Args[0].(*xquery.FLWOR)
	if !ok || len(f.Clauses) != 2 {
		return &StreamPlan{Kind: StreamMaterialized}
	}
	let, okLet := f.Clauses[0].(*xquery.Let)
	forC, okFor := f.Clauses[1].(*xquery.For)
	if !okLet || !okFor || forC.At != "" {
		return &StreamPlan{Kind: StreamMaterialized}
	}
	rows, ok := recordsetRows(let.Expr)
	if !ok {
		return &StreamPlan{Kind: StreamMaterialized}
	}
	path, ok := forC.In.(*xquery.Path)
	if !ok || len(path.Steps) != 1 || path.Steps[0].Name != "RECORD" || len(path.Steps[0].Predicates) != 0 {
		return &StreamPlan{Kind: StreamMaterialized}
	}
	base, ok := path.Base.(*xquery.Var)
	if !ok || base.Name != let.Var {
		return &StreamPlan{Kind: StreamMaterialized}
	}
	// The token expression must not see the whole recordset — per-row
	// evaluation would otherwise change its meaning.
	if xquery.FreeVars(f.Return)[let.Var] {
		return &StreamPlan{Kind: StreamMaterialized}
	}
	return &StreamPlan{Kind: StreamTextRows, rows: rows, tokenVar: forC.Var, ret: f.Return}
}

// recordsetRows unwraps <RECORDSET>{rows}</RECORDSET>.
func recordsetRows(e xquery.Expr) (xquery.Expr, bool) {
	ec, ok := e.(*xquery.ElementCtor)
	if !ok || ec.Name != "RECORDSET" || len(ec.Content) != 1 {
		return nil, false
	}
	enc, ok := ec.Content[0].(*xquery.Enclosed)
	if !ok {
		return nil, false
	}
	return enc.Expr, true
}

// streamBuffer is the cursor channel's capacity: enough slack that the
// producer is rarely blocked on a consumer doing per-row work, small enough
// that early termination leaves only a bounded number of rows in flight.
const streamBuffer = 64

// Cursor is the pull end of a streaming evaluation. The producing goroutine
// evaluates the query and pushes one chunk per row into a bounded channel;
// Next pulls them. Next returns io.EOF after the last row, or the
// evaluation's error. Close is idempotent, cancels the evaluation through
// the context plumbing, and waits for the producer to exit — after Close
// returns, no evaluation work is running.
type Cursor struct {
	ch     chan xdm.Sequence
	errCh  chan error
	cancel context.CancelFunc

	start   time.Time
	m       *engineMetrics // the engine's counters, folded into at finish
	aligned bool

	closed   atomic.Bool
	finished atomic.Bool

	mu         sync.Mutex
	done       bool
	err        error
	pending    xdm.Sequence
	hasPending bool
	sawFirst   bool

	produced atomic.Int64
	consumed atomic.Int64
	peak     atomic.Int64

	counters *evalCounters
}

// RowAligned reports whether each chunk is exactly one result row (true
// for the recognized XML and text shapes; false for the materialized
// fallback, where chunks are arbitrary result items).
func (c *Cursor) RowAligned() bool { return c.aligned }

// emit delivers one chunk from the producing goroutine, giving up when the
// cursor's context is cancelled (Close, statement close, or deadline).
func (c *Cursor) emit(ctx context.Context, chunk xdm.Sequence) error {
	select {
	case c.ch <- chunk:
		inFlight := c.produced.Add(1) - c.consumed.Load()
		for {
			p := c.peak.Load()
			if inFlight <= p || c.peak.CompareAndSwap(p, inFlight) {
				break
			}
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Next returns the next chunk, io.EOF after the last one, or the
// evaluation's error. Safe for use concurrently with Close.
func (c *Cursor) Next() (xdm.Sequence, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.next()
}

func (c *Cursor) next() (xdm.Sequence, error) {
	if c.hasPending {
		chunk := c.pending
		c.pending, c.hasPending = nil, false
		return chunk, nil
	}
	if c.done {
		if c.err != nil {
			return nil, c.err
		}
		return nil, io.EOF
	}
	if c.closed.Load() {
		return nil, io.EOF
	}
	chunk, ok := <-c.ch
	if ok {
		c.consumed.Add(1)
		if !c.sawFirst {
			c.sawFirst = true
			c.m.firstRow.Observe(time.Since(c.start))
		}
		return chunk, nil
	}
	c.err = <-c.errCh
	// A producer aborted by a deliberate Close ends with context.Canceled;
	// that is termination working as designed, not an error.
	if c.closed.Load() && errors.Is(c.err, context.Canceled) {
		c.err = nil
	}
	c.done = true
	c.finishMetrics(c.consumed.Load())
	if c.err != nil {
		return nil, c.err
	}
	return nil, io.EOF
}

// Prime pulls the first chunk and holds it for the next call to Next, so
// errors raised before the first row (missing data services, injected
// faults at source-call time, bad bindings) surface synchronously to the
// caller that opened the cursor. An empty result primes successfully.
func (c *Cursor) Prime() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hasPending || c.done || c.closed.Load() {
		return c.err
	}
	chunk, err := c.next()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return err
	}
	c.pending, c.hasPending = chunk, true
	return nil
}

// Close cancels the evaluation (if still running), drains the channel so
// the producer goroutine exits, and releases the cursor. It is idempotent
// and never reports the cancellation its own call caused as an error.
func (c *Cursor) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.cancel()
	c.mu.Lock()
	defer c.mu.Unlock()
	// What the consumer took: everything pulled, less a primed chunk it
	// never read. The drain below delivers nothing.
	delivered := c.consumed.Load()
	if c.hasPending {
		delivered--
	}
	c.pending, c.hasPending = nil, false
	for !c.done {
		_, ok := <-c.ch
		if ok {
			c.consumed.Add(1)
			continue
		}
		err := <-c.errCh
		c.done = true
		if err != nil && !errors.Is(err, context.Canceled) {
			c.err = err
		}
	}
	c.finishMetrics(delivered)
	return nil
}

// Err returns the evaluation error the stream terminated with, if any.
func (c *Cursor) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stats reports the evaluation's step and tuple counters. Valid once the
// stream has terminated (Next returned io.EOF or an error, or Close
// returned); the producing goroutine has exited by then.
func (c *Cursor) Stats() (steps, tuples int64) {
	return c.counters.steps, c.counters.tuples
}

// finishMetrics folds the finished cursor into its engine's counters,
// once: its peak in-flight rows and, when every chunk is a row, the rows
// it delivered. A cursor over arbitrary XQuery delivers items, not rows.
func (c *Cursor) finishMetrics(delivered int64) {
	if c.finished.Swap(true) {
		return
	}
	c.m.peakInFlight.SetMax(c.peak.Load())
	if c.aligned {
		c.m.rows.Add(delivered)
	}
}

// EvalStream evaluates a planned query as a row stream. The returned
// cursor owns a goroutine until it is exhausted or closed; callers must
// call Close (reading through io.EOF also releases it).
func (e *Engine) EvalStream(ctx context.Context, p *Plan, external map[string]xdm.Sequence, tr *obsv.Trace) *Cursor {
	return e.evalStream(ctx, p.Query, p, p.Stream, external, tr)
}

// EvalStreamNaive streams without planning — the differential oracle's
// second side, mirroring EvalNaiveWithTrace.
func (e *Engine) EvalStreamNaive(ctx context.Context, q *xquery.Query, external map[string]xdm.Sequence, tr *obsv.Trace) *Cursor {
	return e.evalStream(ctx, q, nil, planStream(q.Body), external, tr)
}

func (e *Engine) evalStream(ctx context.Context, q *xquery.Query, p *Plan, sp *StreamPlan, external map[string]xdm.Sequence, tr *obsv.Trace) *Cursor {
	sctx, cancel := context.WithCancel(ctx)
	counters := &evalCounters{}
	env := e.rootScope(sctx, q, p, external, counters)
	span := tr.StartStage(obsv.StageEvaluate)
	cur := &Cursor{
		ch:       make(chan xdm.Sequence, streamBuffer),
		errCh:    make(chan error, 1),
		cancel:   cancel,
		aligned:  sp.Streamable(),
		start:    time.Now(),
		m:        &e.m,
		counters: counters,
	}
	go func() {
		var emitted int
		err := runStream(q.Body, sp, env, func(chunk xdm.Sequence) error {
			if err := cur.emit(sctx, chunk); err != nil {
				return err
			}
			emitted++
			return nil
		})
		e.endEval(span, counters, emitted)
		cur.errCh <- err
		close(cur.ch)
	}()
	return cur
}

// runStream drives the decomposed body into emit, one chunk per row (or
// per item in the materialized fallback).
func runStream(body xquery.Expr, sp *StreamPlan, env *scope, emit func(xdm.Sequence) error) error {
	switch sp.Kind {
	case StreamXMLRows:
		return streamItems(sp.rows, env, func(it xdm.Item) error {
			return emit(xdm.SequenceOf(it))
		})
	case StreamTextRows:
		if sp.prog != nil {
			return sp.prog.stream(env, emit)
		}
		return streamItems(sp.rows, env, func(it xdm.Item) error {
			return streamTextTokens(it, sp, env, emit)
		})
	default:
		out, err := evalExpr(body, env)
		if err != nil {
			return err
		}
		for _, it := range out {
			if err := emit(xdm.SequenceOf(it)); err != nil {
				return err
			}
		}
		return nil
	}
}

// streamTextTokens is the unfused text path — the naive evaluator's, and
// the fallback for shapes no row program covers. It replays the wrapper's
// `for $tokenQuery in $actualQuery/RECORD return (tokens)` for one streamed
// rows item, without ever building the RECORDSET element: element children named RECORD become
// rows, documents splice their children (as enclosed content would), and
// anything else is dropped exactly as the /RECORD step drops non-element
// content.
func streamTextTokens(it xdm.Item, sp *StreamPlan, env *scope, emit func(xdm.Sequence) error) error {
	switch n := it.(type) {
	case *xdm.Document:
		for _, ch := range n.Children {
			if err := streamTextTokens(ch, sp, env, emit); err != nil {
				return err
			}
		}
	case *xdm.Element:
		if n.Name.Local != "RECORD" {
			return nil
		}
		if err := env.countTuple(); err != nil {
			return err
		}
		t := env.bindItem(sp.tokenVar, n)
		if err := t.checkCancel(); err != nil {
			return err
		}
		v, err := evalExpr(sp.ret, t)
		if err != nil {
			return err
		}
		if err := t.countRows(len(v)); err != nil {
			return err
		}
		return emit(v)
	}
	return nil
}

// streamItems produces a row expression's items one at a time: FLWORs run
// through the planned executor's tuple sink (or the naive segmented
// streamer), sequences stream element-wise, and fn:subsequence(rows, 1, n)
// — the translated FETCH FIRST — stops the producer after n items. Every
// other expression evaluates whole and emits item by item.
func streamItems(e xquery.Expr, env *scope, emitItem func(xdm.Item) error) error {
	switch n := e.(type) {
	case *xquery.FLWOR:
		emitSeq := func(v xdm.Sequence) error {
			for _, it := range v {
				if err := emitItem(it); err != nil {
					return err
				}
			}
			return nil
		}
		if env.st.plan != nil {
			if fp, ok := env.st.plan.flwors[n]; ok {
				return execPlannedFLWORTo(fp, env, nil, emitSeq)
			}
		}
		return streamNaiveFLWOR(n, env, emitSeq)

	case *xquery.Seq:
		for _, item := range n.Items {
			if err := streamItems(item, env, emitItem); err != nil {
				return err
			}
		}
		return nil

	case *xquery.FuncCall:
		if limit, inner, ok := subsequenceLimit(n); ok {
			return streamLimited(inner, env, limit, emitItem)
		}
	}
	v, err := evalExpr(e, env)
	if err != nil {
		return err
	}
	for _, it := range v {
		if err := emitItem(it); err != nil {
			return err
		}
	}
	return nil
}

// streamLimited streams inner's first limit items — the cursor-boundary
// short circuit behind FETCH FIRST.
func streamLimited(inner xquery.Expr, env *scope, limit int64, emitItem func(xdm.Item) error) error {
	return limitStream(limit, emitItem, func(emit func(xdm.Item) error) error {
		return streamItems(inner, env, emit)
	})
}

// limitStream runs a producer until it has emitted limit values, then
// stops it with a sentinel caught here. The sentinel is unique per limiter
// so a nested outer limit propagates through an inner one.
func limitStream[T any](limit int64, emit func(T) error, run func(emit func(T) error) error) error {
	if limit <= 0 {
		return nil
	}
	stop := errors.New("xqeval: stream limit reached")
	remaining := limit
	err := run(func(v T) error {
		if err := emit(v); err != nil {
			return err
		}
		remaining--
		if remaining == 0 {
			return stop
		}
		return nil
	})
	if err == stop { //nolint:errorlint // sentinel identity, never wrapped
		return nil
	}
	return err
}

// subsequenceLimit matches the translator's FETCH FIRST spelling —
// fn:subsequence(rows, 1, n) with plain integer literals. Only that exact
// form short-circuits; any other subsequence call keeps fnSubsequence's
// general F&O rounding semantics. (For start=1 and integer n ≥ 0 the F&O
// bounds floor(1+0.5)=1 .. 1+floor(n+0.5)=1+n select exactly the first n
// items, so stopping after n is value-identical.)
func subsequenceLimit(fc *xquery.FuncCall) (limit int64, inner xquery.Expr, ok bool) {
	if fc.Name != "fn:subsequence" || len(fc.Args) != 3 {
		return 0, nil, false
	}
	start, ok1 := intLiteral(fc.Args[1])
	n, ok2 := intLiteral(fc.Args[2])
	if !ok1 || !ok2 || start != 1 || n < 0 {
		return 0, nil, false
	}
	return n, fc.Args[0], true
}

func intLiteral(e xquery.Expr) (int64, bool) {
	lit, ok := e.(*xquery.NumberLit)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(lit.Text, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// streamNaiveFLWOR is the unplanned pipeline with a streaming tail: every
// clause up to and including the last barrier runs through applyClause
// (byte-identical barrier semantics), and the remaining for/let/where
// suffix streams tuples depth-first into the return clause.
func streamNaiveFLWOR(f *xquery.FLWOR, env *scope, emit func(xdm.Sequence) error) error {
	last := -1
	for i, c := range f.Clauses {
		switch c.(type) {
		case *xquery.GroupBy, *xquery.OrderByClause:
			last = i
		}
	}
	tuples := []*scope{env}
	var err error
	for _, c := range f.Clauses[:last+1] {
		tuples, err = applyClause(c, tuples)
		if err != nil {
			return err
		}
	}
	rest := f.Clauses[last+1:]
	for _, t := range tuples {
		err := streamClauses(rest, t, func(t2 *scope) error {
			if err := t2.checkCancel(); err != nil {
				return err
			}
			v, err := evalExpr(f.Return, t2)
			if err != nil {
				return err
			}
			if err := t2.countRows(len(v)); err != nil {
				return err
			}
			return emit(v)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// streamClauses pushes one tuple depth-first through a barrier-free clause
// suffix. For/let/where produce tuples in the same order as the naive
// breadth-first applyClause pipeline; only error timing can differ, which
// XQuery §2.3.4 permits.
func streamClauses(clauses []xquery.Clause, t *scope, sink tupleSink) error {
	if len(clauses) == 0 {
		return sink(t)
	}
	switch c := clauses[0].(type) {
	case *xquery.For:
		if err := t.checkCancel(); err != nil {
			return err
		}
		seq, err := evalExpr(c.In, t)
		if err != nil {
			return err
		}
		for i, it := range seq {
			if err := t.countTuple(); err != nil {
				return err
			}
			nt := t.bindItem(c.Var, it)
			if c.At != "" {
				nt = nt.bindItem(c.At, xdm.Integer(i+1))
			}
			if err := streamClauses(clauses[1:], nt, sink); err != nil {
				return err
			}
		}
		return nil
	case *xquery.Let:
		v, err := evalExpr(c.Expr, t)
		if err != nil {
			return err
		}
		return streamClauses(clauses[1:], t.bind(c.Var, v), sink)
	case *xquery.Where:
		ok, err := evalEBV(c.Cond, t)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		return streamClauses(clauses[1:], t, sink)
	default:
		return dynErr("unsupported FLWOR clause %T", clauses[0])
	}
}
