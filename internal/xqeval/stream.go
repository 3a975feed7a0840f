package xqeval

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
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
// as they are produced, text rows through the row program (rowprog.go).
// GROUP BY and ORDER BY remain the only materialization points (they are
// barriers inside the FLWOR pipeline); set operations pass through
// fn-bea:distinct-rows and therefore evaluate whole before streaming out.
//
// FETCH FIRST n ROWS ONLY — translated as fn:subsequence(rows, 1, n) —
// short-circuits here: the limiter stops the producing pipeline after n
// rows instead of truncating a finished sequence. Stopping early can
// suppress dynamic errors a full evaluation would have raised in rows the
// consumer never asked for; XQuery §2.3.4 grants exactly that latitude,
// and the differential tests pin value-level equivalence.

// StreamKind classifies how a query body decomposes into a row stream.
type StreamKind uint8

const (
	// StreamMaterialized means the body has no recognized row-stream shape:
	// the whole body is evaluated first, then its items are emitted.
	StreamMaterialized StreamKind = iota
	// StreamXMLRows is the XML result shape: each emitted chunk is one item
	// of the RECORDSET constructor's content (one RECORD element per row).
	StreamXMLRows
	// StreamTextRows is the §4 text shape: rows are sent as batches of §4
	// text, each row its delimiters and escaped values.
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
	// prog encodes text rows (rowprog.go), from RECORD elements or, once
	// buildPlan fuses it, the row FLWOR's tuples. Set iff StreamTextRows.
	prog *rowProgram
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
	if sp.prog != nil {
		kind += fmt.Sprintf(", fused: %d column", len(sp.prog.cols))
		if len(sp.prog.cols) != 1 {
			kind += "s"
		}
		if sp.prog.fp == nil {
			kind += ", reads RECORD elements"
		}
	}
	return "row cursor (" + kind + "); barriers: group by / order by segments materialize"
}

// planStream pattern-matches the translator's two generated top-level
// shapes. Anything else — including a text wrapper whose tokens compile to
// no row program — degrades to StreamMaterialized, which is always correct.
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
	prog := newRowProgram(f.Return, forC.Var)
	if prog == nil {
		return &StreamPlan{Kind: StreamMaterialized}
	}
	return &StreamPlan{Kind: StreamTextRows, rows: rows, prog: prog}
}

// bypasses reports whether the row stream never evaluates let: a text
// wrapper's let, whose RECORDSET content the row program streams itself.
func (sp *StreamPlan) bypasses(let *xquery.Let) bool {
	rows, ok := recordsetRows(let.Expr)
	return ok && sp.Kind == StreamTextRows && rows == sp.rows
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

// streamBuffer bounds the rows sent but not yet handed out: enough slack
// that the producer is rarely blocked on a consumer doing per-row work,
// little enough that early termination leaves few rows in flight. XML rows
// and materialized items go one per send, into streamBuffer slots; text
// rows in batches of at most batchRows, into streamBuffer/batchRows - 1
// slots, which with the batch being read hold at most streamBuffer rows.
const (
	streamBuffer = 64
	batchRows    = 32
)

// chunk is one send on the cursor channel: one XML row or materialized
// item, or a batch of text rows.
type chunk struct {
	items xdm.Sequence
	batch *rowBatch
}

// rowBatch is up to batchRows §4 text rows, back to back in text: row i
// is text[ends[i]:ends[i+1]]. It is immutable once sent.
type rowBatch struct {
	text string
	n    int
	ends [batchRows + 1]int32
}

// rows is how many rows the chunk carries.
func (ch *chunk) rows() int {
	if ch.batch != nil {
		return ch.batch.n
	}
	return min(len(ch.items), 1)
}

// Cursor is the pull end of a streaming evaluation. The producing goroutine
// evaluates the query and sends its rows into a bounded channel — text rows
// in batches, anything else one per send — and Next and NextText hand them
// out one row at a time, counting each, then io.EOF or the evaluation's
// error. Close is idempotent, cancels the evaluation through the context
// plumbing, and waits for the producer to exit — after Close returns, no
// evaluation work is running.
//
// The cursor times its stages in clock: evaluate from its start to the
// producer's end, decode over the delivery window, from a successful
// Prime to Close. The first Close folds them into stages, when set.
type Cursor struct {
	ch     chan chunk
	errCh  chan error
	cancel context.CancelFunc

	start  time.Time
	m      *engineMetrics   // the engine's counters, folded into at finish
	stages *obsv.StageTimes // where Close folds clock; nil: not counted
	clock  obsv.StageClock  // evaluate set by the producer, decode by Close
	primed time.Time        // when Prime succeeded; zero: it has not
	kind   StreamKind       // row-aligned unless StreamMaterialized; Drain reads it

	closed   atomic.Bool
	finished atomic.Bool

	mu       sync.Mutex
	done     bool
	sawFirst bool
	err      error
	cur      chunk // the chunk rows are handed out from
	pos      int   // rows of cur handed out

	produced atomic.Int64
	consumed atomic.Int64
	peak     atomic.Int64

	counters *evalCounters
}

// RowAligned reports whether each row Next or NextText hands out is exactly
// one result row (true for the recognized XML and text shapes; false for
// the materialized fallback, whose chunks are arbitrary result items).
func (c *Cursor) RowAligned() bool { return c.kind != StreamMaterialized }

// send delivers one chunk from the producing goroutine, giving up when the
// cursor's context is cancelled (Close, statement close, or deadline).
func (c *Cursor) send(ctx context.Context, ch chunk) error {
	select {
	case c.ch <- ch:
		inFlight := c.produced.Add(int64(ch.rows())) - c.consumed.Load()
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

// Next returns the next row (one item of the materialized fallback), io.EOF
// after the last one, or the evaluation's error. A text row comes as one
// xs:string. Safe for use concurrently with Close.
func (c *Cursor) Next() (xdm.Sequence, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fill(); err != nil {
		return nil, err
	}
	if text, isText := c.take(); isText {
		return xdm.SequenceOf(xdm.String(text)), nil
	}
	return c.cur.items, nil
}

// NextText returns the next row of a text-rows stream as the §4 text the
// evaluator wrote, leading row delimiter included — a substring of its
// batch, so handing it out allocates nothing. Other rows are an error.
func (c *Cursor) NextText() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fill(); err != nil {
		return "", err
	}
	if text, isText := c.take(); isText {
		return text, nil
	}
	return "", errors.New("xqeval: NextText on a stream whose rows are not text")
}

// fill makes cur hold a row not yet handed out, receiving from the
// producer as needed: io.EOF after the last row, or the evaluation's error.
func (c *Cursor) fill() error {
	for c.pos >= c.cur.rows() {
		if c.done {
			if c.err != nil {
				return c.err
			}
			return io.EOF
		}
		if c.closed.Load() {
			return io.EOF
		}
		ch, ok := <-c.ch
		if !ok {
			c.err = <-c.errCh
			// A producer aborted by a deliberate Close ends with
			// context.Canceled; that is termination working as designed,
			// not an error.
			if c.closed.Load() && errors.Is(c.err, context.Canceled) {
				c.err = nil
			}
			c.done = true
			c.finishMetrics(c.consumed.Load())
			continue
		}
		if !c.sawFirst {
			c.sawFirst = true
			c.m.firstRow.Observe(time.Since(c.start))
		}
		c.cur, c.pos = ch, 0
	}
	return nil
}

// take hands out cur's next row, counting it: a text row as its substring
// of the batch, any other as cur.items.
func (c *Cursor) take() (text string, isText bool) {
	i := c.pos
	c.pos++
	c.consumed.Add(1)
	b := c.cur.batch
	if b == nil {
		return "", false
	}
	return b.text[b.ends[i]:b.ends[i+1]], true
}

// Prime receives the first chunk and holds it for the next call to Next, so
// errors raised before the first row (missing data services, injected
// faults at source-call time, bad bindings) surface synchronously to the
// caller that opened the cursor. An empty result primes successfully.
func (c *Cursor) Prime() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fill(); err != nil && err != io.EOF {
		return err
	}
	c.primed = time.Now()
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
	// What the consumer took is every row handed out; the rows left in cur
	// and the channel are dropped, and stop counting as in flight.
	delivered := c.consumed.Load()
	c.consumed.Add(int64(c.cur.rows() - c.pos))
	c.cur, c.pos = chunk{}, 0
	for !c.done {
		ch, ok := <-c.ch
		if ok {
			c.consumed.Add(int64(ch.rows()))
			continue
		}
		err := <-c.errCh
		c.done = true
		if err != nil && !errors.Is(err, context.Canceled) {
			c.err = err
		}
	}
	c.finishMetrics(delivered)
	if c.stages != nil {
		if !c.primed.IsZero() {
			c.clock.Set(obsv.StageDecode, time.Since(c.primed))
		}
		c.stages.Fold(&c.clock)
	}
	return nil
}

// Drain reads the rest of the stream and closes the cursor, returning the
// value the query body evaluates to: a materialized result is a drained
// cursor. XML rows go back into their RECORDSET element and text rows are
// string-joined into the one §4 string, so the value is the body's own.
func (c *Cursor) Drain() (xdm.Sequence, error) {
	defer c.Close()
	var items xdm.Sequence
	for {
		row, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		items = append(items, row...)
	}
	switch c.kind {
	case StreamXMLRows:
		rs := xdm.NewElement("RECORDSET")
		appendContent(rs, items)
		items = xdm.SequenceOf(rs)
	case StreamTextRows:
		return fnStringJoin([]xdm.Sequence{items, nil})
	}
	return items, nil
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

// evaluated is the producer's last act before its error goes out: it
// folds the evaluation's counters into the engine's and clocks the
// evaluate stage.
func (c *Cursor) evaluated() {
	c.m.evaluated(c.counters)
	c.clock.Set(obsv.StageEvaluate, time.Since(c.start))
}

// finishMetrics folds the finished cursor into its engine's counters,
// once: its peak in-flight rows and, when every chunk is a row, the rows
// it delivered. A cursor over arbitrary XQuery delivers items, not rows.
func (c *Cursor) finishMetrics(delivered int64) {
	if c.finished.Swap(true) {
		return
	}
	c.m.peakInFlight.SetMax(c.peak.Load())
	if c.RowAligned() {
		c.m.rows.Add(delivered)
	}
}

// rowWriter is a text-rows stream's producer end. A row is appended to the
// buffer open returns and closed by end, or, written to a string that
// outlives the batch (a morsel's text), closed by endIn without a copy.
// Rows leave in batches of 1, 2, 4, … up to batchRows, so the first leaves
// as soon as it is written. The buffer is reused, and grown for a whole
// batch at once from the mean row of the one before.
type rowWriter struct {
	buf    []byte
	b      *rowBatch // the batch being filled; nil between batches
	size   int       // rows the batch is closed at
	perRow int       // bytes a row is expected to take
	rows   int64     // rows written
	limit  int64     // FETCH FIRST n: the stream stops at row n; < 0 none
	cur    *Cursor
	ctx    context.Context
}

// errRowLimit is the writer's stop once a FETCH FIRST limit has its rows.
var errRowLimit = errors.New("xqeval: row limit reached")

// open returns the buffer the next row is appended to.
func (w *rowWriter) open() *[]byte {
	if w.b == nil {
		w.b = new(rowBatch)
		w.buf = slices.Grow(w.buf, w.size*w.perRow)
	}
	return &w.buf
}

// end closes the row appended to the buffer since the previous end.
func (w *rowWriter) end() error { return w.endIn("", 0, len(w.buf)) }

// endIn closes the row text[from:to]; all rows of a batch lie in one text,
// back to back, so the caller flushes before moving to another. (end's
// rows lie in the buffer, whose batch open made.) A full batch is sent.
func (w *rowWriter) endIn(text string, from, to int) error {
	if w.b == nil {
		w.b = &rowBatch{text: text}
		w.b.ends[0] = int32(from)
	}
	w.b.n++
	w.b.ends[w.b.n] = int32(to)
	w.rows++
	if w.b.n == w.size {
		if err := w.flush(); err != nil {
			return err
		}
		w.size = min(2*w.size, batchRows)
	}
	if w.rows == w.limit {
		return errRowLimit
	}
	return nil
}

// flush sends the rows closed so far. The bytes of a row an error left
// open stay behind.
func (w *rowWriter) flush() error {
	b := w.b
	if b == nil || b.n == 0 {
		return nil
	}
	w.b = nil
	if b.text == "" { // the rows are in buf
		n := int(b.ends[b.n])
		b.text = string(w.buf[:n])
		w.perRow = n/b.n + n/(8*b.n) + 1
		w.buf = w.buf[:0]
	}
	return w.cur.send(w.ctx, chunk{batch: b})
}

// EvalStream evaluates a planned query as a row stream. The returned
// cursor owns a goroutine until it is exhausted or closed; callers must
// call Close (reading through io.EOF also releases it). stages, when
// non-nil, receives the evaluate and decode times at the first Close.
func (e *Engine) EvalStream(ctx context.Context, p *Plan, external map[string]xdm.Sequence, stages *obsv.StageTimes) *Cursor {
	return e.evalStream(ctx, p.Query, p, p.Stream, external, stages)
}

// EvalStreamNaive streams without planning — the differential oracle's
// second side, mirroring EvalNaive.
func (e *Engine) EvalStreamNaive(ctx context.Context, q *xquery.Query, external map[string]xdm.Sequence, stages *obsv.StageTimes) *Cursor {
	return e.evalStream(ctx, q, nil, planStream(q.Body), external, stages)
}

func (e *Engine) evalStream(ctx context.Context, q *xquery.Query, p *Plan, sp *StreamPlan, external map[string]xdm.Sequence, stages *obsv.StageTimes) *Cursor {
	sctx, cancel := context.WithCancel(ctx)
	counters := &evalCounters{}
	env := e.rootScope(sctx, q, p, external, counters)
	slots := streamBuffer
	if sp.Kind == StreamTextRows {
		slots = streamBuffer/batchRows - 1
	}
	cur := &Cursor{
		ch:       make(chan chunk, slots),
		errCh:    make(chan error, 1),
		cancel:   cancel,
		kind:     sp.Kind,
		start:    time.Now(),
		m:        &e.m,
		stages:   stages,
		counters: counters,
	}
	go func() {
		w := &rowWriter{size: 1, perRow: 128, limit: -1, cur: cur, ctx: sctx}
		err := runStream(q.Body, sp, env, w, func(items xdm.Sequence) error {
			return cur.send(sctx, chunk{items: items})
		})
		// Rows written before a stop or an error still go out, ahead of it.
		if ferr := w.flush(); err == nil {
			err = ferr
		}
		cur.evaluated()
		cur.errCh <- err
		close(cur.ch)
	}()
	return cur
}

// runStream drives the decomposed body: text rows into w, any other row
// (or item, in the materialized fallback) into emit, one chunk each.
func runStream(body xquery.Expr, sp *StreamPlan, env *scope, w *rowWriter, emit func(xdm.Sequence) error) error {
	switch sp.Kind {
	case StreamXMLRows:
		return streamItems(sp.rows, env, func(it xdm.Item) error {
			return emit(xdm.SequenceOf(it))
		})
	case StreamTextRows:
		return sp.prog.stream(sp.rows, env, w)
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
				return execPlannedFLWORTo(fp, env, nil, nil, emitSeq)
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
// short circuit behind FETCH FIRST. The stop sentinel is unique per
// limiter, so a nested outer limit propagates through an inner one.
func streamLimited(inner xquery.Expr, env *scope, limit int64, emitItem func(xdm.Item) error) error {
	if limit <= 0 {
		return nil
	}
	stop := errors.New("xqeval: stream limit reached")
	err := streamItems(inner, env, func(it xdm.Item) error {
		if err := emitItem(it); err != nil {
			return err
		}
		if limit--; limit == 0 {
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
