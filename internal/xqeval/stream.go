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
// the generated query's row stream, evaluated on the reader's goroutine.
// The translator always builds results through one of two fixed top-level
// shapes — the XML mode's <RECORDSET>{rows}</RECORDSET> constructor, or the
// §4 text mode's fn:string-join over a per-RECORD token FLWOR — and both
// expose a row-producing expression whose items can be pulled one at a time
// instead of materialized into a sequence. planStream recognizes those
// shapes statically (the decomposition rides on the Plan, so compiled-query
// artifacts carry it), and EvalStream composes a row source over the row
// expression (rowsOf): each Next or NextText evaluates just the rows it
// hands out, resuming the planned executor's final segment where the last
// pull left it, text rows through the row program (rowprog.go). GROUP BY
// and ORDER BY remain the only materialization points (they are barriers
// inside the FLWOR pipeline); set operations pass through
// fn-bea:distinct-rows and therefore evaluate whole before streaming out.
//
// FETCH FIRST n ROWS ONLY — translated as fn:subsequence(rows, 1, n) —
// short-circuits here: a countdown never pulls row n+1 instead of
// truncating a finished sequence.

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

// batchRows caps the text rows one pull evaluates: the first evaluates 1,
// so the first row never waits for a second, and each later one doubles,
// up to batchRows — enough to amortize a batch's string over its rows, few
// enough that a reader who stops early leaves little evaluated and unread.
const batchRows = 32

// Cursor is the pull end of a streaming evaluation. Next and NextText
// evaluate the query on the caller's goroutine, one chunk per pull — text
// rows a batch at a time, anything else one item — and hand it out one row
// at a time, counting each, then io.EOF or the evaluation's error. Close is
// idempotent and safe while another goroutine is in Next: it cancels the
// evaluation through the context plumbing, then waits for that pull to
// return — after Close returns, no evaluation work is running and no morsel
// worker is alive.
//
// The cursor times its stages in clock: evaluate from its start to the
// evaluation's end, decode over the delivery window, from a successful
// Prime to Close. The first Close folds them into stages, when set.
type Cursor struct {
	cancel context.CancelFunc
	env    *scope // the evaluation's root: its state and counters
	start  time.Time
	m      *engineMetrics   // the engine's counters, folded into at the end
	stages *obsv.StageTimes // where Close folds clock; nil: not counted
	clock  obsv.StageClock  // evaluate set at the evaluation's end, decode by Close
	primed time.Time        // when Prime succeeded; zero: it has not
	kind   StreamKind       // row-aligned unless StreamMaterialized; Drain reads it
	closed atomic.Bool

	mu    sync.Mutex
	items itemIter // the source of XML rows and materialized items
	text  textRows // the source of text rows
	// done: the evaluation ended, its pools joined and its counters folded;
	// counted: the cursor's rows are folded too.
	done, counted, sawFirst bool
	err                     error
	item                    xdm.Item  // the item Next hands out next; nil: none
	w                       rowWriter // text rows: the batch handed out from
	pos                     int       // rows of the batch handed out
	delivered, peak         int64
	pools                   pools // fan-outs the sources left running
}

// RowAligned reports whether each row Next or NextText hands out is exactly
// one result row (true for the recognized XML and text shapes; false for
// the materialized fallback, whose chunks are arbitrary result items).
func (c *Cursor) RowAligned() bool { return c.kind != StreamMaterialized }

// Next returns the next row (one item of the materialized fallback), io.EOF
// after the last one, or the evaluation's error. A text row comes as one
// xs:string. Safe for use concurrently with Close.
func (c *Cursor) Next() (xdm.Sequence, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fill(); err != nil {
		return nil, err
	}
	c.delivered++
	if c.text != nil {
		return xdm.SequenceOf(xdm.String(c.row())), nil
	}
	it := c.item
	c.item = nil
	return xdm.SequenceOf(it), nil
}

// NextText returns the next row of a text-rows stream as the §4 text the
// evaluator wrote, leading row delimiter included — a substring of its
// batch, so handing it out allocates nothing. Other rows are an error.
func (c *Cursor) NextText() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.text == nil {
		return "", errors.New("xqeval: NextText on a stream whose rows are not text")
	}
	if err := c.fill(); err != nil {
		return "", err
	}
	c.delivered++
	return c.row(), nil
}

// row hands out the batch's next text row.
func (c *Cursor) row() string {
	c.pos++
	return c.w.text[c.w.ends[c.pos-1]:c.w.ends[c.pos]]
}

// ready is how many evaluated rows are not handed out yet.
func (c *Cursor) ready() int {
	if c.text != nil {
		return c.w.n() - c.pos
	}
	if c.item != nil {
		return 1
	}
	return 0
}

// fill makes a row ready to hand out, pulling the next chunk as needed:
// io.EOF after the last row, or the evaluation's error. The evaluation
// ends at a chunk with no rows, or at an error — once the rows written
// before it are handed out.
func (c *Cursor) fill() error {
	for c.ready() == 0 {
		if c.done {
			c.count()
			if c.err != nil {
				return c.err
			}
			return io.EOF
		}
		if c.closed.Load() {
			return io.EOF
		}
		var err error
		if c.pos = 0; c.text != nil {
			err = c.w.refill(c.text)
		} else {
			c.item, err = c.items()
		}
		n := int64(c.ready())
		if n > 0 && !c.sawFirst {
			c.sawFirst = true
			c.m.firstRow.Observe(time.Since(c.start))
		}
		if c.peak = max(c.peak, n); n == 0 || err != nil {
			c.end(err)
		}
	}
	return nil
}

// end ends the evaluation: the fan-outs its sources left running are
// joined, and its counters fold into the engine's with the evaluate stage
// clocked. An evaluation aborted by a deliberate Close ends with
// context.Canceled; that is termination working as designed, not an error.
func (c *Cursor) end(err error) {
	if c.closed.Load() && errors.Is(err, context.Canceled) {
		err = nil
	}
	c.err, c.done = err, true
	c.pools.join()
	c.m.evaluated(c.env.st.counters)
	c.clock.Set(obsv.StageEvaluate, time.Since(c.start))
}

// Prime pulls the first chunk and holds it for the next call to Next, so
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

// Close cancels the evaluation, waits for a pull in progress to return,
// ends the evaluation if it has not ended — the rows evaluated but not
// handed out are dropped — and releases the cursor. It is idempotent and
// never reports the cancellation its own call caused as an error.
func (c *Cursor) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.cancel()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.item, c.pos = nil, c.w.n()
	c.count()
	if !c.done {
		c.end(nil)
	}
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
// returned); every morsel worker has been joined by then.
func (c *Cursor) Stats() (steps, tuples int64) {
	return c.env.st.counters.steps, c.env.st.counters.tuples
}

// count folds the cursor into its engine's counters, once: its peak of
// rows evaluated but not handed out and, when every chunk is a row, the
// rows it handed out. A cursor over arbitrary XQuery hands out items, not
// rows.
func (c *Cursor) count() {
	if c.counted {
		return
	}
	c.counted = true
	c.m.peakInFlight.SetMax(c.peak)
	if c.RowAligned() {
		c.m.rows.Add(c.delivered)
	}
}

// rowWriter builds a batch of text rows, back to back in text: row i is
// text[ends[i]:ends[i+1]]. A row is appended to the buffer open returns
// and closed by end, or, lying in a string that outlives the batch (a
// morsel's text), closed by endIn without a copy. The buffer is reused,
// and grown for a whole batch at once from the mean row of the one before.
type rowWriter struct {
	text   string
	ends   []int32 // on arr, unless a document's rows outgrow it
	arr    [batchRows + 1]int32
	buf    []byte
	size   int   // rows the next refill evaluates: 1, 2, 4, … up to batchRows
	perRow int   // bytes a row is expected to take
	rows   int64 // rows written
}

// n is how many rows the batch holds.
func (w *rowWriter) n() int { return max(len(w.ends)-1, 0) }

// refill replaces the batch with the next one src writes, and doubles the
// size of the one after. The rows written to the buffer become the
// batch's one string; the bytes of a row an error left open stay behind.
func (w *rowWriter) refill(src textRows) error {
	w.text, w.ends, w.buf = "", w.arr[:0], w.buf[:0]
	err := src(w, w.size)
	if n := w.n(); n > 0 && w.text == "" {
		end := int(w.ends[n])
		w.text = string(w.buf[:end])
		w.perRow = end/n + end/(8*n) + 1
	}
	w.size = min(2*w.size, batchRows)
	return err
}

// open returns the buffer the next row is appended to.
func (w *rowWriter) open() *[]byte {
	if len(w.ends) == 0 {
		w.buf = slices.Grow(w.buf[:0], w.size*w.perRow)
	}
	return &w.buf
}

// end closes the row appended to the buffer since the previous end.
func (w *rowWriter) end() { w.endIn("", 0, len(w.buf)) }

// endIn closes the row text[from:to]; all rows of a batch lie in one text,
// back to back. (end's rows lie in the buffer.)
func (w *rowWriter) endIn(text string, from, to int) {
	if len(w.ends) == 0 {
		w.text, w.ends = text, append(w.ends, int32(from))
	}
	w.ends = append(w.ends, int32(to))
	w.rows++
}

// EvalStream evaluates a planned query as a row stream, which the cursor's
// Next and NextText pull on the caller's goroutine. Callers must call
// Close (reading through io.EOF also ends the evaluation). stages, when
// non-nil, receives the evaluate and decode times at the first Close.
func (e *Engine) EvalStream(ctx context.Context, p *Plan, external map[string]xdm.Sequence, stages *obsv.StageTimes) *Cursor {
	return e.evalStream(ctx, p.Query, p, p.Stream, external, stages)
}

// EvalStreamNaive streams without planning — the differential oracle's
// second side, mirroring EvalNaive.
func (e *Engine) EvalStreamNaive(ctx context.Context, q *xquery.Query, external map[string]xdm.Sequence, stages *obsv.StageTimes) *Cursor {
	return e.evalStream(ctx, q, nil, planStream(q.Body), external, stages)
}

// evalStream composes the body's row source; the cursor's pulls run it.
func (e *Engine) evalStream(ctx context.Context, q *xquery.Query, p *Plan, sp *StreamPlan, external map[string]xdm.Sequence, stages *obsv.StageTimes) *Cursor {
	sctx, cancel := context.WithCancel(ctx)
	env := e.rootScope(sctx, q, p, external, &evalCounters{})
	cur := &Cursor{cancel: cancel, env: env, kind: sp.Kind, start: time.Now(), m: &e.m, stages: stages,
		w: rowWriter{size: 1, perRow: 128}}
	switch sp.Kind {
	case StreamXMLRows:
		cur.items = rowsOf(sp.rows, env, &cur.pools)
	case StreamTextRows:
		cur.text = sp.prog.rows(sp.rows, env, &cur.pools)
	default:
		cur.items = whole(q.Body, env)
	}
	return cur
}

// A row source is pulled: each call evaluates, on the caller's goroutine,
// just enough for what it returns. An itemIter returns the next item, nil
// after the last; a textRows writes up to n more rows to w, fewer only at
// the end of the stream or of a morsel's text, none only at its end. A
// fan-out a source starts goes to ps, for the reader to join.
type (
	itemIter func() (xdm.Item, error)
	textRows func(w *rowWriter, n int) error
)

// rowsOf composes e's items as a row source: a FLWOR is its planned
// executor's values (or the naive pipeline's), a sequence the
// concatenation of its members', and fn:subsequence(rows, 1, n) — the
// translated FETCH FIRST — a countdown that never pulls item n+1. Any
// other expression is evaluated whole on the first pull.
func rowsOf(e xquery.Expr, env *scope, ps *pools) itemIter {
	switch n := e.(type) {
	case *xquery.FLWOR:
		if env.st.plan != nil {
			if fp, ok := env.st.plan.flwors[n]; ok {
				return items(newExec(fp, env, nil, ps).value)
			}
		}
		return items(naiveValues(n, env))
	case *xquery.Seq:
		members := n.Items
		var cur itemIter
		return func() (xdm.Item, error) {
			for {
				if cur == nil {
					if len(members) == 0 {
						return nil, nil
					}
					cur, members = rowsOf(members[0], env, ps), members[1:]
				}
				if it, err := cur(); it != nil || err != nil {
					return it, err
				}
				cur = nil
			}
		}
	case *xquery.FuncCall:
		if left, inner, ok := subsequenceLimit(n); ok {
			return limited(rowsOf(inner, env, ps), left)
		}
	}
	return whole(e, env)
}

// items hands out the values pulled from next item by item.
func items(next func() (xdm.Sequence, bool, error)) itemIter {
	var v xdm.Sequence
	return func() (xdm.Item, error) {
		for len(v) == 0 {
			var ok bool
			var err error
			if v, ok, err = next(); !ok {
				return nil, err
			}
		}
		it := v[0]
		v = v[1:]
		return it, nil
	}
}

// whole is e evaluated on the first pull, its items handed out one per
// pull.
func whole(e xquery.Expr, env *scope) itemIter {
	done := false
	return items(func() (xdm.Sequence, bool, error) {
		if done {
			return nil, false, nil
		}
		done = true
		v, err := evalExpr(e, env)
		return v, err == nil, err
	})
}

// limited is the first left items of in — the short circuit behind FETCH
// FIRST. Stopping early can suppress dynamic errors a full evaluation
// would have raised in rows nobody asked for; XQuery §2.3.4 grants exactly
// that latitude.
func limited(in itemIter, left int64) itemIter {
	return func() (xdm.Item, error) {
		if left <= 0 {
			return nil, nil
		}
		it, err := in()
		if it != nil {
			left--
		}
		return it, err
	}
}

// drain pulls every item of in.
func drain(in itemIter) (xdm.Sequence, error) {
	var out xdm.Sequence
	for {
		it, err := in()
		if err != nil {
			return nil, err
		}
		if it == nil {
			return out, nil
		}
		out = append(out, it)
	}
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

// naiveValues is the unplanned FLWOR's return values, pulled — the oracle
// the planned executor is held to. On the first pull every clause up to
// and including the last barrier runs through applyClause (byte-identical
// barrier semantics), and the for/let/where suffix after it becomes a
// chain of tuple sources, each pulling the one before, so the return
// clause sees the tuples depth-first. The order is the naive breadth-first
// pipeline's; only error timing can differ, which XQuery §2.3.4 permits.
func naiveValues(f *xquery.FLWOR, env *scope) func() (xdm.Sequence, bool, error) {
	var tuples func() (*scope, error)
	return func() (xdm.Sequence, bool, error) {
		if tuples == nil {
			last := -1
			for i, c := range f.Clauses {
				switch c.(type) {
				case *xquery.GroupBy, *xquery.OrderByClause:
					last = i
				}
			}
			prefix := []*scope{env}
			for _, c := range f.Clauses[:last+1] {
				var err error
				if prefix, err = applyClause(c, prefix); err != nil {
					return nil, false, err
				}
			}
			tuples = func() (*scope, error) {
				if len(prefix) == 0 {
					return nil, nil
				}
				t := prefix[0]
				prefix = prefix[1:]
				return t, nil
			}
			for _, c := range f.Clauses[last+1:] {
				tuples = naiveClause(c, tuples)
			}
		}
		t, err := tuples()
		if t == nil || err != nil {
			return nil, false, err
		}
		if err := t.checkCancel(); err != nil {
			return nil, false, err
		}
		v, err := evalExpr(f.Return, t)
		if err == nil {
			err = t.countRows(len(v))
		}
		return v, err == nil, err
	}
}

// naiveClause is one for, let or where clause over the tuples in pulls.
func naiveClause(c xquery.Clause, in func() (*scope, error)) func() (*scope, error) {
	switch c := c.(type) {
	case *xquery.For:
		var t *scope
		var seq xdm.Sequence
		i := 0
		return func() (*scope, error) {
			for i == len(seq) {
				var err error
				if t, err = in(); t == nil || err != nil {
					return nil, err
				}
				if err := t.checkCancel(); err != nil {
					return nil, err
				}
				if seq, err = evalExpr(c.In, t); err != nil {
					return nil, err
				}
				i = 0
			}
			if err := t.countTuple(); err != nil {
				return nil, err
			}
			i++
			nt := t.bindItem(c.Var, seq[i-1])
			if c.At != "" {
				nt = nt.bindItem(c.At, xdm.Integer(i))
			}
			return nt, nil
		}
	case *xquery.Let:
		return func() (*scope, error) {
			t, err := in()
			if t == nil || err != nil {
				return nil, err
			}
			v, err := evalExpr(c.Expr, t)
			if err != nil {
				return nil, err
			}
			return t.bind(c.Var, v), nil
		}
	case *xquery.Where:
		return func() (*scope, error) {
			for {
				t, err := in()
				if t == nil || err != nil {
					return nil, err
				}
				if ok, err := evalEBV(c.Cond, t); err != nil || ok {
					return t, err
				}
			}
		}
	}
	return func() (*scope, error) { return nil, dynErr("unsupported FLWOR clause %T", c) }
}
