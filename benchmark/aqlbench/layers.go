package main

import (
	"database/sql"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	aqualogic "repro"
	"repro/benchmark/gen"
	"repro/internal/catalog"
	"repro/internal/qfront"
	"repro/internal/resultset"
	"repro/internal/wire"
)

// tracedRun is everything a --trace 1 run produces.
type tracedRun struct {
	metrics           map[string]value
	callers           int
	attempted, failed int
	traced            phase
}

// perLayerMetrics is the traced pass, recording into the caller's tracer.
// It builds the workload twice, plain and under the tracer; runs the closed loop untraced, traced, untraced
// (the reference gives the tracing overhead and the per-kind client
// latencies); and finally replays the workload's own statements step by
// step through each layer's public functions.
func perLayerMetrics(name string, seed uint64, seconds, scale float64, tr *tracer) (*tracedRun, error) {
	slice := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }

	plain, err := setup(name, seed, scale, nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	e, err := setup(name, seed, scale, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	tr.reset() // drop the warm-up's spans
	if e.st != nil {
		e.st.reset()
	}
	cache0, meta0, retries0 := e.p.CompileStats(), e.p.MetadataStats(), aqualogic.Stats().RemoteRetries
	// Reference, traced, reference: drift over the run cancels.
	ref := runPhase(plain, slice(0.15), false)
	smp := startSampler()
	traced := runPhase(e, slice(0.35), true)
	smp.finish()
	cache1 := e.p.CompileStats()
	ref = ref.merge(runPhase(plain, slice(0.15), false))

	m := map[string]value{}
	put := func(name string, v float64, samples int) { m[name] = value{Value: v, Samples: samples} }
	tot := tr.totals()
	opNs := float64(tot["bench.op"].busy)
	ops := traced.ops

	put("runtime.peak_heap_mb", float64(smp.heap)/(1<<20), ops)
	put("runtime.gc_pause_total_ms", ms(traced.gcPause), ops)
	put("runtime.goroutines_peak", float64(smp.routines), ops)
	put("trace.overhead_ratio", ratio(traced.busy.Seconds()/float64(traced.ops), ref.busy.Seconds()/float64(ref.ops)), ops)
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	put("qcache.hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	put("qcache.evictions", float64(cache1.Evictions-cache0.Evictions), int(hits+misses))
	for _, n := range []string{"qcache.hit", "qcache.miss"} { // CompileContext in process, Backend.CompileDialect served
		put(n+"_us", ratio(us(tot[n].busy), float64(tot[n].calls)), int(tot[n].calls))
	}

	// Shares of traced op time. In process the op's children are the
	// layers; served, the op's children are the handler spans and the
	// backend spans are detached, so the split comes from their totals.
	lt := tr // the tracer holding step-by-step layer spans
	compile := float64(tot["qcache.hit"].busy + tot["qcache.miss"].busy)
	var xq, rs, facade, backend, serverSelf, transport, loose float64
	if e.sv == nil {
		xq, rs, facade = float64(layer(tot, "xqeval.")), float64(layer(tot, "resultset.")), float64(layer(tot, "aqualogic."))
		backend = compile + xq + rs + facade
		loose = float64(tot["bench.op"].self)
	} else {
		handler, reqs := float64(layer(tot, "server.handler")), e.st.requests.Load()
		backend = float64(layer(tot, "backend.")) + compile
		serverSelf, transport = handler-backend, opNs-handler
		put("server.handler_us_per_request", handler/1e3/float64(reqs), int(reqs))
		put("server.backend_us_per_request", backend/1e3/float64(reqs), int(reqs))
		put("server.self_us_per_request", serverSelf/1e3/float64(reqs), int(reqs))
		put("server.requests_per_op", float64(reqs)/float64(ops), ops)
		stats := e.sv.srv.Stats()
		put("server.peak_in_flight", float64(stats.PeakInFlight), ops)
		put("server.admission_rejected", float64(stats.AdmissionRejected), ops)
		put("wire.resp_bytes_per_op", float64(e.st.respBytes.Load())/float64(ops), ops)
		put("wire.resp_bytes_per_row", ratio(float64(e.st.respBytes.Load()), float64(traced.rows)), int(traced.rows))
		put("remoteclient.client_transport_us_per_op", transport/1e3/float64(ops), ops)
		put("remoteclient.retries", float64(aqualogic.Stats().RemoteRetries-retries0), ops)
		if name == "served_point" { // client-observed latency per op kind, tracing off
			put("remoteclient.point_p50_ms", percentile(ref.byKind[kindPoint], 0.50), len(ref.byKind[kindPoint]))
			put("remoteclient.point_p99_ms", percentile(ref.byKind[kindPoint], 0.99), len(ref.byKind[kindPoint]))
			put("remoteclient.browse_p50_ms", percentile(ref.byKind[kindBrowse], 0.50), len(ref.byKind[kindBrowse]))
			put("remoteclient.drill_p50_ms", percentile(ref.byKind[kindDrill], 0.50), len(ref.byKind[kindDrill]))
		}
		enc, dec, rows := replayFetches(e.st.fetches)
		put("wire.encode_us_per_row", ratio(us(enc), float64(rows)), rows)
		put("wire.decode_us_per_row", ratio(us(dec), float64(rows)), rows)

		// The platform's own layers cannot be told apart through the
		// server, so replay the statements step by step in process.
		lt = newTracer()
		defer lt.release()
		stepSample(e, lt, slice(0.05))
	}
	put("trace.share_compile", compile/opNs, ops)
	put("trace.share_xqeval", xq/opNs, ops)
	put("trace.share_resultset", rs/opNs, ops)
	put("trace.share_aqualogic", facade/opNs, ops)
	put("trace.share_backend", backend/opNs, ops)
	put("trace.share_server_self", serverSelf/opNs, ops)
	put("trace.share_client_transport", transport/opNs, ops)
	put("trace.unattributed_ratio", loose/opNs, ops)

	// Per-layer costs from step-by-step spans.
	ltot := lt.totals()
	rows := float64(ltot["resultset.rows"].calls - ltot["bench.op"].calls) // Next calls minus one EOF per op
	put("resultset.decode_us_per_row", ratio(us(ltot["resultset.rows"].self), rows), int(rows))
	put("aqualogic.self_us_per_query", ratio(us(ltot["aqualogic.bind"].busy), float64(ltot["aqualogic.bind"].calls)), int(ltot["aqualogic.bind"].calls))

	if err := compileSteps(e, slice(0.08), put); err != nil {
		return nil, err
	}
	meta1 := e.p.MetadataStats() // over the traced ops and the compile steps
	mh, mm := meta1.Hits-meta0.Hits, meta1.Misses-meta0.Misses
	put("catalog.hit_ratio", ratio(float64(mh), float64(mh+mm)), mh+mm)
	bare, err := evalOnly(e, slice(0.08), false)
	if err != nil {
		return nil, err
	}
	put("xqeval.open_us", us(bare.openNs)/float64(bare.ops), bare.ops)
	put("xqeval.eval_us_per_row", ratio(us(bare.ns), float64(bare.rows)), bare.rows)
	put("xqeval.steps_per_row", ratio(float64(bare.steps), float64(bare.rows)), bare.rows)
	put("xqeval.tuples_per_row", ratio(float64(bare.tuples), float64(bare.rows)), bare.rows)
	put("xqeval.allocs_per_row", ratio(float64(bare.mallocs), float64(bare.rows)), bare.rows)
	decoded, err := evalOnly(e, slice(0.05), true)
	if err != nil {
		return nil, err
	}
	put("resultset.allocs_per_row", ratio(float64(decoded.mallocs), float64(decoded.rows))-m["xqeval.allocs_per_row"].Value, decoded.rows)

	put("driver.self_us_per_query", 0, 0)
	if name == "adhoc_compile" {
		d, n, err := driverSelf(e, slice(0.08))
		if err != nil {
			return nil, err
		}
		put("driver.self_us_per_query", d, n)
	}

	for _, spec := range perLayer {
		v := m[spec.Name] // metrics of layers this workload does not use stay 0
		v.Unit = spec.Unit
		m[spec.Name] = v
	}
	if tr.dropped+lt.dropped > 0 {
		return nil, fmt.Errorf("%s: span buffer full, %d spans dropped", name, tr.dropped+lt.dropped)
	}
	return &tracedRun{metrics: m, callers: e.callers, attempted: ref.ops + traced.ops, failed: ref.failed + traced.failed, traced: traced}, nil
}

func (st *serverTrace) reset() {
	st.requests.Store(0)
	st.respBytes.Store(0)
	st.mu.Lock()
	st.fetches = nil
	st.mu.Unlock()
}

// stepSample runs the step-by-step op over the workload's sample
// statements in process, for the served workloads.
func stepSample(e *env, t *tracer, d time.Duration) {
	_ = e.cycles(d, func(i int, c *gen.Call) error {
		stepwise(e.p, t, int32(i), c, false)
		return nil
	})
}

// cycles replays the workload's sample statements in whole passes — at
// least one, more while time remains — so every replay sees the same
// statement mix and their per-row figures can be compared and subtracted.
func (e *env) cycles(d time.Duration, f func(i int, c *gen.Call) error) error {
	for i, end := 0, time.Now().Add(d); i == 0 || time.Now().Before(end); {
		for j := range e.sample {
			if err := f(i, &e.sample[j]); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

// compileSteps times the compile path one public function at a time on
// the workload's statements: Normalize (the cache key), Parse,
// TranslateStmt, CompileAST, and a catalog lookup per table.
func compileSteps(e *env, d time.Duration, put func(string, float64, int)) error {
	fe, err := qfront.Lookup(qfront.DialectSQL)
	if err != nil {
		return err
	}
	tables, err := e.p.Metadata().Tables()
	if err != nil {
		return err
	}
	var norm, parse, translate, plan, lookup time.Duration
	var bytes, n int
	err = e.cycles(d, func(i int, c *gen.Call) error {
		tr := e.p.Translator(mode(c.Q))
		t0 := time.Now()
		if _, err := fe.Normalize(c.Q.SQL); err != nil {
			return err
		}
		t1 := time.Now()
		stmt, err := fe.Parse(c.Q.SQL, nil)
		if err != nil {
			return err
		}
		t2 := time.Now()
		res, err := tr.TranslateStmt(stmt)
		if err != nil {
			return err
		}
		t3 := time.Now()
		ext := make([]string, res.ParamCount)
		for i := range ext {
			ext[i] = "p" + strconv.Itoa(i+1)
		}
		t4 := time.Now()
		if _, err := e.p.Engine.CompileAST(res.Query, ext); err != nil {
			return err
		}
		t5 := time.Now()
		if _, err := e.p.Metadata().Lookup(catalog.TableRef{Table: tables[i%len(tables)].Function.Name}); err != nil {
			return err
		}
		lookup += time.Since(t5)
		norm, parse, translate, plan = norm+t1.Sub(t0), parse+t2.Sub(t1), translate+t3.Sub(t2), plan+t5.Sub(t4)
		bytes += len(res.XQuery())
		n++
		return nil
	})
	per := func(d time.Duration) float64 { return us(int64(d)) / float64(n) }
	put("qfront.normalize_us", per(norm), n)
	put("sqlparser.parse_us", per(parse), n)
	put("translator.translate_us", per(translate), n)
	put("translator.xquery_bytes", float64(bytes)/float64(n), n)
	put("xqeval.plan_us", per(plan), n)
	put("catalog.lookup_us", per(lookup), n)
	return err
}

type evalTotals struct {
	ops, rows     int
	openNs, ns    int64
	steps, tuples int64
	mallocs       uint64
}

// evalOnly drains the evaluator's cursor for the workload's statements
// with no result set on top (decode false) or with the bare §4 decoder
// and nothing else (decode true), counting time, steps and allocations.
func evalOnly(e *env, d time.Duration, decode bool) (evalTotals, error) {
	var tot evalTotals
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := e.cycles(d, func(_ int, c *gen.Call) error {
		cq, err := e.p.CompileContext(ctx, c.Q.SQL, mode(c.Q))
		if err != nil {
			return err
		}
		ext, cols, err := bind(cq, c.Args)
		if err != nil {
			return err
		}
		t0 := time.Now()
		cur := e.p.Engine.EvalStream(ctx, cq.Plan, ext, nil)
		defer cur.Close()
		if err := cur.Prime(); err != nil {
			return err
		}
		t1 := time.Now()
		next := func() error { _, err := cur.Next(); return err } // row-aligned: a chunk is a row
		if decode {
			rows := decoder(c.Q)(cur, cols)
			next = func() error { _, err := rows.Next(); return err }
		}
		for err = next(); err == nil; err = next() {
			tot.rows++
		}
		if err != io.EOF {
			return err
		}
		tot.ops++
		tot.openNs += int64(t1.Sub(t0))
		tot.ns += int64(time.Since(t0))
		steps, tuples := cur.Stats()
		tot.steps, tot.tuples = tot.steps+steps, tot.tuples+tuples
		return nil
	})
	runtime.ReadMemStats(&after)
	tot.mallocs = after.Mallocs - before.Mallocs
	return tot, err
}

// decoder picks the §4 result decoder for a query's mode.
func decoder(q *gen.Query) func(resultset.ItemStream, []resultset.Column) resultset.RowCursor {
	if q.XML {
		return resultset.StreamXML
	}
	return resultset.StreamText
}

// bind is the facade's glue: parameters to external variables, result
// schema to decoder columns.
func bind(cq *aqualogic.CompiledQuery, args []any) (map[string]aqualogic.Sequence, []resultset.Column, error) {
	ext := make(map[string]aqualogic.Sequence, len(args))
	for i, a := range args {
		v, err := aqualogic.ToAtomic(a)
		if err != nil {
			return nil, nil, err
		}
		ext["p"+strconv.Itoa(i+1)] = aqualogic.Sequence{v}
	}
	cols := make([]resultset.Column, len(cq.Res.Columns))
	for i, rc := range cq.Res.Columns {
		cols[i] = resultset.Column{Label: rc.Label, ElementName: rc.ElementName, Type: rc.Type, Nullable: rc.Nullable}
	}
	return ext, cols, nil
}

var driverNames atomic.Int32

// driverSelf is what database/sql adds over the facade: the mean time of a
// statement through sql.DB minus the mean through QueryStreamMode, both
// drained without the answer check. The driver shares the platform's
// compile cache, so the two paths take alternate statements and swap
// halves every pass: each statement is then as cold for one path as for
// the other, and on adhoc_compile both miss every time. Were one statement
// run through both in turn, the second call would hit the entry the first
// compiled and the difference would hold a cold compile.
func driverSelf(e *env, d time.Duration) (float64, int, error) {
	name := "aqlbench-" + strconv.Itoa(int(driverNames.Add(1)))
	e.p.RegisterDriver(name)
	db, err := sql.Open("aqualogic", name)
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	var viaSQL, viaFacade time.Duration
	var nSQL, nFacade, half int
	one := func(i int, c *gen.Call) error {
		t0 := time.Now()
		if (i%len(e.sample)+i/len(e.sample)+half)%2 == 0 { // statement index + pass + round
			rows, err := db.QueryContext(ctx, c.Q.SQL, c.Args...)
			if err != nil {
				return fmt.Errorf("database/sql: %w", err)
			}
			defer rows.Close() // error paths
			dest := make([]any, len(c.Q.Kinds))
			for i := range dest {
				dest[i] = new(any)
			}
			for rows.Next() {
				if err := rows.Scan(dest...); err != nil {
					return err
				}
			}
			if err := rows.Close(); err != nil {
				return err
			}
			viaSQL, nSQL = viaSQL+time.Since(t0), nSQL+1
			return rows.Err()
		}
		fr, err := e.p.QueryStreamMode(ctx, mode(c.Q), c.Q.SQL, c.Args...)
		if err != nil {
			return err
		}
		defer fr.Close() // error paths; closing twice is harmless
		for fr.Next() {
			for i := range c.Q.Kinds {
				if _, err := fr.Value(i); err != nil {
					return err
				}
			}
		}
		err = fr.Err()
		fr.Close()
		viaFacade, nFacade = viaFacade+time.Since(t0), nFacade+1
		return err
	}
	for half = 0; half < 2 && err == nil; half++ { // two rounds of whole passes: every statement takes both paths
		err = e.cycles(d/2, one)
	}
	return us(int64(viaSQL))/float64(nSQL) - us(int64(viaFacade))/float64(nFacade), nSQL + nFacade, err
}

// replayFetches decodes and re-encodes captured fetch response bodies
// offline through encoding/json with the wire types: the per-row price of
// the envelope on each side of the connection.
func replayFetches(bodies [][]byte) (encNs, decNs int64, rows int) {
	for _, b := range bodies {
		var resp wire.FetchResponse
		t0 := time.Now()
		if err := json.Unmarshal(b, &resp); err != nil {
			continue
		}
		t1 := time.Now()
		if _, err := json.Marshal(resp); err != nil {
			continue
		}
		decNs += int64(t1.Sub(t0))
		encNs += int64(time.Since(t1))
		rows += len(resp.Rows)
	}
	return encNs, decNs, rows
}
