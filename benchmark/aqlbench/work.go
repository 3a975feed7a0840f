package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	aqualogic "repro"
	"repro/benchmark/gen"
	"repro/internal/catalog"
	"repro/internal/remoteclient"
	"repro/internal/resultset"
)

var ctx = context.Background()

// Op kinds of the served point mix (every other workload uses kind 0).
const (
	kindPoint = iota
	kindBrowse
	kindDrill
	numKinds
)

// result is what one closed-loop operation reports.
type result struct {
	rows  int
	first time.Duration // submit → first row available (or → known empty)
	kind  int
	ok    bool // no error and the answer matched the plain-Go digest
}

// env is one built workload: inputs generated from the seed, platform
// (and server) up, caches warm. op runs the n-th operation of a caller;
// when the env was built with a tracer the same op records spans under
// the given op id.
type env struct {
	callers int
	p       *aqualogic.Platform
	sample  []gen.Call // statements the step-by-step layer passes replay
	op      func(caller, n int, opID int32) result
	close   func()

	sv *served      // served workloads
	tr *tracer      // served workloads, traced build only
	st *serverTrace // served workloads, traced build only
}

func mode(q *gen.Query) aqualogic.ResultMode {
	if q.XML {
		return aqualogic.ModeXML
	}
	return aqualogic.ModeText
}

// scaled shrinks a size for the smoke test, never below min.
func scaled(n int, scale float64, min int) int {
	if s := int(float64(n) * scale); s > min {
		return s
	}
	return min
}

// setup builds the named workload. With tr set, in-process ops run step
// by step through each layer's public functions under spans, and served
// stacks are built with the handler middleware and backend wrapper.
func setup(name string, seed uint64, scale float64, tr *tracer) (*env, error) {
	r := gen.NewRand(seed)
	var e *env
	var err error
	warm := 0 // warm-up ops per caller: fills compile cache, metadata cache, lazy source stats
	switch name {
	case "adhoc_compile":
		tabs := gen.Small(r, 24)
		calls := gen.Adhoc(r, tabs, scaled(4096, scale, 70))
		e = inproc(newPlatform(tabs), calls, tr, false, func(n int) *gen.Call { return &calls[n%len(calls)] })
		warm = len(calls) / 4 // touches every table and overfills the cache
	case "scan_stream_text":
		w := gen.Wide(r, scaled(5000, scale, 100))
		calls := gen.Scan(r, w, 32)
		e = inproc(newPlatform([]*gen.Table{w}), calls, tr, false, func(n int) *gen.Call { return &calls[n%len(calls)] })
		warm = 3
	case "join_group_xml":
		shop := gen.Shop(r, scaled(150, scale, 20), scaled(300, scale, 40))
		sets := gen.Reports(r, shop, 8)
		// Rows.Materialize, as a reporting tool that scrolls would.
		e = inproc(newPlatform(shop), []gen.Call{sets[0][0], sets[1][0], sets[2][0]}, tr, true,
			func(n int) *gen.Call { return &sets[n%3][n/3%len(sets[n%3])] })
		warm = 3
	case "served_point":
		e, err = servedPoint(r, tr)
		warm = scaled(200, scale, 20)
	case "served_scan":
		w := gen.Wide(r, scaled(2500, scale, 100))
		e, err = servedScan(w, gen.Scan(r, w, 32), tr)
		warm = 2
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	for c := 0; c < e.callers; c++ {
		for n := 0; n < warm; n++ {
			if res := e.op(c, n, -1); !res.ok {
				e.close()
				return nil, fmt.Errorf("%s: warm-up op %d of caller %d failed its answer check", name, n, c)
			}
		}
	}
	return e, nil
}

// ---- in-process workloads: one caller on the facade ----

func inproc(p *aqualogic.Platform, sample []gen.Call, tr *tracer, materialize bool, pick func(n int) *gen.Call) *env {
	e := &env{callers: 1, p: p, sample: sample, close: func() {}}
	e.op = func(_, n int, opID int32) result {
		c := pick(n)
		if tr != nil && opID >= 0 {
			return stepwise(p, tr, opID, c, materialize)
		}
		t0 := time.Now()
		rows, err := p.QueryStreamMode(ctx, mode(c.Q), c.Q.SQL, c.Args...)
		if err != nil {
			return failedOp(c, err, 0)
		}
		return drain(rows, c, t0, materialize, nil)
	}
	return e
}

// drain pulls every row, folds the cells into the answer digest and
// compares it with the one computed from the generated data. busy, when
// set, accumulates the time spent inside the result set's own calls.
func drain(rows *aqualogic.Rows, c *gen.Call, t0 time.Time, materialize bool, busy *int64) (res result) {
	clock := func(f func()) {
		if busy == nil {
			f()
			return
		}
		t := time.Now()
		f()
		*busy += int64(time.Since(t))
	}
	defer clock(rows.Close)
	var err error
	if materialize {
		clock(func() { err = rows.Materialize() })
	}
	h := c.Q.NewHasher()
	for err == nil {
		var more bool
		clock(func() { more = rows.Next() })
		if !more {
			err = rows.Err()
			break
		}
		if res.rows == 0 {
			res.first = time.Since(t0)
		}
		for i := 0; i < len(c.Q.Kinds) && err == nil; i++ {
			var v aqualogic.Atomic
			if v, err = rows.Value(i); v == nil {
				h.Cell(i, "", true)
			} else {
				h.Cell(i, v.Lexical(), false)
			}
		}
		h.EndRow()
		res.rows++
	}
	if res.rows == 0 {
		res.first = time.Since(t0)
	}
	if res.ok = err == nil && h.Digest().Equal(c.Want); !res.ok {
		failedOp(c, err, res.rows)
	}
	return res
}

// failedOp prints a failed operation — an error, a refusal or a wrong
// answer — with the statement that caused it; the first few only.
func failedOp(c *gen.Call, err error, rows int) result {
	if failures.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "aqlbench: failed op (error %v; %d rows, want %d): %s %v\n", err, rows, c.Want.Rows, c.Q.SQL, c.Args)
	}
	return result{}
}

var failures atomic.Int32

// stepwise is the traced in-process op: the facade's QueryStreamMode
// unrolled into calls to each layer's public functions, each under a
// span, with a timing shim between the decoder and the evaluator cursor.
func stepwise(p *aqualogic.Platform, t *tracer, opID int32, c *gen.Call, materialize bool) result {
	misses := p.CompileStats().Misses
	t0 := time.Now()
	root := t.open(opID, 0, "bench.op")
	defer t.close(root)

	start := t.now()
	cq, err := p.CompileContext(ctx, c.Q.SQL, mode(c.Q))
	end := t.now()
	name := "qcache.hit"
	if p.CompileStats().Misses != misses {
		name = "qcache.miss" // parse + translate + plan happen inside it
	}
	t.add(opID, root, name, start, end, end-start, 1)
	if err != nil {
		return failedOp(c, err, 0)
	}

	var ext map[string]aqualogic.Sequence
	var cols []resultset.Column
	t.timed(opID, root, "aqualogic.bind", func() { ext, cols, err = bind(cq, c.Args) })
	if err != nil {
		return failedOp(c, err, 0)
	}

	ts := &timedStream{}
	t.timed(opID, root, "xqeval.open", func() {
		cur := p.Engine.EvalStream(ctx, cq.Plan, ext, nil)
		err = cur.Prime()
		ts.src = cur
	})
	if err != nil {
		ts.src.Close()
		return failedOp(c, err, 0)
	}
	rows := resultset.NewStreaming(decoder(c.Q)(ts, cols))

	start = t.now()
	var busy int64
	res := drain(rows, c, t0, materialize, &busy) // closes rows, and with them the cursor
	end = t.now()
	rs := t.add(opID, root, "resultset.rows", start, end, busy, int32(res.rows)+1)
	t.add(opID, rs, "xqeval.next", start, end, ts.busy, ts.calls)
	return res
}

// ---- served workloads: two sessions over real TCP ----

func newServed(p *aqualogic.Platform, tr *tracer) (*env, error) {
	e := &env{callers: 2, p: p, tr: tr}
	var err error
	if tr == nil {
		e.sv, err = serve(p, e.callers, nil)
	} else {
		e.st = &serverTrace{t: tr}
		e.sv, err = serve(&tracedBackend{Platform: p, t: tr}, e.callers, e.st.middleware)
	}
	if err != nil {
		return nil, err
	}
	e.close = e.sv.close
	return e, nil
}

// tracedOp publishes the caller's op to the middleware (which finds it by
// session id) and brackets the client-side call in the op's root span.
func (e *env) tracedOp(caller int, opID int32, f func() result) result {
	if e.tr == nil || opID < 0 {
		return f()
	}
	ref, _ := e.st.current.LoadOrStore(e.sv.clients[caller].Session(), &opRef{})
	root := e.tr.open(opID, 0, "bench.op")
	ref.(*opRef).op.Store(opID)
	ref.(*opRef).root.Store(root)
	defer func() {
		ref.(*opRef).op.Store(-1) // requests outside an op (session close) belong to none
		ref.(*opRef).root.Store(0)
		e.tr.close(root)
	}()
	return f()
}

func servedScan(w *gen.Table, calls []gen.Call, tr *tracer) (*env, error) {
	e, err := newServed(newPlatform([]*gen.Table{w}), tr)
	if err != nil {
		return nil, err
	}
	e.sample = calls
	stmts := make([]*remoteclient.Stmt, e.callers)
	for i, c := range e.sv.clients {
		if stmts[i], err = c.Prepare(ctx, gen.ScanSQL, aqualogic.ModeText); err != nil {
			e.close()
			return nil, err
		}
	}
	e.op = func(caller, n int, opID int32) result {
		c := &calls[(n+caller*len(calls)/e.callers)%len(calls)] // the sessions walk the variants out of step
		return e.tracedOp(caller, opID, func() result { return execute(stmts[caller], c) })
	}
	return e, nil
}

func execute(st *remoteclient.Stmt, c *gen.Call) result {
	t0 := time.Now()
	rows, err := st.Execute(ctx, c.Args...)
	if err != nil {
		return failedOp(c, err, 0)
	}
	return drain(rows, c, t0, false, nil)
}

func servedPoint(r *gen.Rand, tr *tracer) (*env, error) {
	// The paper's example application at its demo size; not scaled, the
	// point of the workload is that the data is small.
	shop := gen.Shop(r, 50, 120)
	point, drill := gen.Lookups(shop)
	e, err := newServed(newPlatform(shop), tr)
	if err != nil {
		return nil, err
	}
	e.sample = []gen.Call{point[0], drill[0]}
	type session struct{ point, drill *remoteclient.Stmt }
	ss := make([]session, e.callers)
	for i, c := range e.sv.clients {
		if ss[i].point, err = c.Prepare(ctx, point[0].Q.SQL, aqualogic.ModeText); err == nil {
			ss[i].drill, err = c.Prepare(ctx, drill[0].Q.SQL, aqualogic.ModeText)
		}
		if err != nil {
			e.close()
			return nil, err
		}
	}
	// Exactly 70 % point lookups, 15 % metadata browses and 15 % drills,
	// in a seeded order; each kind walks its own seeded permutation of the
	// customers, so every run touches each customer equally often.
	var slots []int
	for kind, share := range [numKinds]int{kindPoint: 14, kindBrowse: 3, kindDrill: 3} {
		for i := 0; i < share; i++ {
			slots = append(slots, kind)
		}
	}
	mix, turn := r.Perm(len(slots)), r.Perm(len(point))
	done := make([][numKinds]int, e.callers) // ops of each kind a caller has issued
	e.op = func(caller, n int, opID int32) result {
		return e.tracedOp(caller, opID, func() (res result) {
			kind := slots[mix[n%len(mix)]]
			k := done[caller][kind] + caller*len(point)/e.callers
			done[caller][kind]++
			switch kind {
			case kindPoint:
				res = execute(ss[caller].point, &point[turn[k%len(turn)]])
			case kindBrowse:
				res = browse(e.sv.clients[caller], shop, k)
			case kindDrill:
				res = execute(ss[caller].drill, &drill[turn[k%len(turn)]])
			}
			res.kind = kind
			return res
		})
	}
	return e, nil
}

// browse is what a reporting tool's schema pane does: list the tables,
// or describe one. Metadata entries are not counted as result rows.
func browse(c *remoteclient.Client, shop []*gen.Table, k int) (res result) {
	t0 := time.Now()
	if k%2 == 0 {
		metas, err := c.Tables() // sorted by name, the order Shop generates
		res.ok = err == nil && len(metas) == len(shop)
		for i := 0; res.ok && i < len(metas); i++ {
			res.ok = metas[i].Function.Name == shop[i].Name
		}
	} else {
		t := shop[k/2%len(shop)]
		m, err := c.Lookup(catalog.TableRef{Table: t.Name})
		res.ok = err == nil && m.Function.Name == t.Name && len(m.Function.Columns) == len(t.Cols)
	}
	res.first = time.Since(t0)
	return res
}
