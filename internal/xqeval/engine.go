// Package xqeval executes the XQuery dialect generated by the SQL-to-XQuery
// translator. It stands in for the AquaLogic DSP server's query processor:
// data service functions are registered against the engine (keyed by
// namespace and local name, the way generated queries reference them through
// schema-import prefixes), and queries are evaluated directly over the
// in-memory XML data model.
//
// Deliberately mirroring the paper's division of labor, the engine favors
// correctness and completeness of the dialect over optimization: the
// translator emits "patterned", unoptimized XQuery and the paper leaves all
// optimization to the server. The evaluator is a straightforward
// tuple-stream FLWOR interpreter.
package xqeval

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/aqerr"
	"repro/internal/obsv"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// DataServiceFunc is the implementation of one data service function: given
// its evaluated arguments, it returns the function's result sequence
// (typically a sequence of flat row elements).
type DataServiceFunc func(args []xdm.Sequence) (xdm.Sequence, error)

// ContextFunc is a data service function that observes its caller's
// context — the form middleware composes over and the engine invokes.
type ContextFunc func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error)

// Middleware wraps one data service function. name is the function's local
// name (the data service it implements); middleware installed later wraps
// middleware installed earlier, so the last Use() call is outermost. The
// fault-injection and resilience layers compose through this hook: faults
// install first (innermost, closest to the data), defenses second
// (outermost, so they see and absorb the faults).
type Middleware func(name string, fn ContextFunc) ContextFunc

// Engine holds registered data service functions and evaluates queries.
// It is safe for concurrent query evaluation; registration and middleware
// installation should complete before queries run.
type Engine struct {
	mu          sync.RWMutex
	funcs       map[funcKey]*registration
	middlewares []Middleware
	limits      Limits
	// srcStats caches per-data-service statistics for the cost-based
	// planner (stats.go).
	srcStats sourceStatsStore
	// partitions maps partitioned data service functions to their shard
	// specs (partition.go), guarded by mu.
	partitions map[funcKey]*PartitionSpec
	// m counts the engine's own work; Stats reads it.
	m engineMetrics
	// epoch advances on every registration, Use, partitioning and
	// statistics invalidation: a value kept with a plan (keep.go) is valid
	// only at the epoch it was built in.
	epoch atomic.Uint64
	// kept is the budget of the items every plan's kept values hold
	// together (keep.go).
	kept *keptBudget
}

// engineMetrics counts one engine's work: its evaluations and their row
// cursors, plans, statistics lookups, morsels and shard calls. Two engines
// never add into one count.
type engineMetrics struct {
	executed, steps, pruned, limitHits, rows          obsv.Counter
	plans, hashJoins, pushed, hoisted                 obsv.Counter
	statsHits, statsMisses, workers, morsels          obsv.Counter
	keptBuilds, keptReuses                            obsv.Counter
	fedScans, shardScans, shardsPruned, shardsSkipped obsv.Counter
	peakInFlight, backlog                             obsv.Gauge
	firstRow                                          obsv.Histogram
	sourceScans                                       obsv.LabeledCounter
}

// Stats snapshots the engine's counters: the evaluator's share of a
// platform's pipeline snapshot.
func (e *Engine) Stats() obsv.Snapshot {
	m := &e.m
	s := obsv.Snapshot{
		QueriesExecuted:   m.executed.Load(),
		Rows:              m.rows.Load(),
		PeakInFlightRows:  m.peakInFlight.Load(),
		EvalSteps:         m.steps.Load(),
		PlansBuilt:        m.plans.Load(),
		HashJoins:         m.hashJoins.Load(),
		PredicatesPushed:  m.pushed.Load(),
		InvariantsHoisted: m.hoisted.Load(),
		TuplesPruned:      m.pruned.Load(),
		ParallelWorkers:   m.workers.Load(),
		MorselsProcessed:  m.morsels.Load(),
		MergeBacklog:      m.backlog.Load(),
		SourceStatsHits:   m.statsHits.Load(),
		SourceStatsMisses: m.statsMisses.Load(),
		FederatedScans:    m.fedScans.Load(),
		ShardScans:        m.shardScans.Load(),
		ShardsPruned:      m.shardsPruned.Load(),
		ShardsSkipped:     m.shardsSkipped.Load(),
		SourceScans:       m.sourceScans.Snapshot(),
		ResourceLimitHits: m.limitHits.Load(),
		KeptBuilds:        m.keptBuilds.Load(),
		KeptReuses:        m.keptReuses.Load(),
	}
	if ttfr := m.firstRow.Snapshot(); ttfr.Count > 0 {
		s.TimeToFirstRowCount = ttfr.Count
		s.TimeToFirstRowMeanNS = ttfr.Mean().Nanoseconds()
		s.TimeToFirstRowP99NS = ttfr.Quantile(0.99).Nanoseconds()
	}
	return s
}

type funcKey struct {
	namespace string
	local     string
}

// registration keeps both the raw function and its middleware-wrapped
// form, so installing middleware after registration (views are defined
// late) rewraps from the original. source, when set, is the federated
// backend the function lives on; it qualifies the middleware name so fault
// sites and circuit breakers resolve per source.
type registration struct {
	local   string
	source  string
	raw     ContextFunc
	wrapped ContextFunc
	rows    int // the row set's length; -1 for any other function
}

// mwName is the name the middleware chain sees: the bare local name for
// single-source registrations (the historical sites/breaker names), or
// "<source>/<local>" for federated ones — which is how one degraded
// backend's fault points and breaker stay isolated from the others'.
func (r *registration) mwName() string {
	if r.source == "" {
		return r.local
	}
	return r.source + "/" + r.local
}

// New creates an empty engine.
func New() *Engine {
	return &Engine{funcs: make(map[funcKey]*registration), kept: new(keptBudget)}
}

// Register installs a data service function under a namespace and local
// name. Generated queries call it through whatever prefix their prolog
// binds to the namespace.
func (e *Engine) Register(namespace, local string, fn DataServiceFunc) {
	e.RegisterContext(namespace, local, func(_ context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return fn(args)
	})
}

// RegisterContext installs a context-aware data service function — the
// form remote-backed services use so in-flight calls can be cancelled.
func (e *Engine) RegisterContext(namespace, local string, fn ContextFunc) {
	e.RegisterSourceContext("", namespace, local, fn)
}

// RegisterSourceContext installs a context-aware data service function
// attributed to a named federated source. The attribution qualifies the
// function's middleware name (fault sites become "ds/<source>/<local>",
// breakers "data service <source>/<local>") and scopes its statistics under
// the per-source stats generation. An empty source is the single-source
// registration path with the historical names.
func (e *Engine) RegisterSourceContext(source, namespace, local string, fn ContextFunc) {
	e.register(source, namespace, local, fn, -1)
}

// register installs fn, a row set of rows rows when rows >= 0.
func (e *Engine) register(source, namespace, local string, fn ContextFunc, rows int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	reg := &registration{local: local, source: source, raw: fn, rows: rows}
	reg.wrapped = e.wrapLocked(reg.mwName(), fn)
	key := funcKey{namespace, local}
	if old := e.funcs[key]; old != nil && old.rows > 0 {
		e.kept.rows.Add(-int64(old.rows))
	}
	if rows > 0 {
		e.kept.rows.Add(int64(rows))
	}
	e.funcs[key] = reg
	e.epoch.Add(1)
}

// RegisterRows installs a parameterless function returning a fixed row
// sequence — the common case for table-like physical data services.
func (e *Engine) RegisterRows(namespace, local string, rows []*xdm.Element) {
	e.RegisterSourceRows("", namespace, local, rows)
}

// RegisterSourceRows is RegisterRows attributed to a federated source.
func (e *Engine) RegisterSourceRows(source, namespace, local string, rows []*xdm.Element) {
	seq := make(xdm.Sequence, len(rows))
	for i, r := range rows {
		seq[i] = r
	}
	e.register(source, namespace, local, func(_ context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("xqeval: %s takes no arguments", local)
		}
		return seq, nil
	}, len(rows))
}

// Use installs middleware around every data service function, present and
// future. Middleware installed later is outermost.
func (e *Engine) Use(mw Middleware) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.middlewares = append(e.middlewares, mw)
	for _, reg := range e.funcs {
		reg.wrapped = e.wrapLocked(reg.mwName(), reg.raw)
	}
	e.epoch.Add(1)
}

// wrapLocked applies the installed middleware chain to fn. Callers hold
// e.mu.
func (e *Engine) wrapLocked(name string, fn ContextFunc) ContextFunc {
	for _, mw := range e.middlewares {
		fn = mw(name, fn)
	}
	return fn
}

func (e *Engine) lookup(namespace, local string) (ContextFunc, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	reg, ok := e.funcs[funcKey{namespace, local}]
	if !ok {
		return nil, false
	}
	return reg.wrapped, true
}

// Limits bounds one evaluation's resource use; zero fields are unlimited.
// A breached limit aborts the evaluation with a typed resource-limit error
// rather than letting a runaway query exhaust the process.
type Limits struct {
	// MaxRows caps items appended to any FLWOR's result sequence.
	MaxRows int64
	// MaxTuples caps the tuples for clauses bind across the evaluation
	// (the evaluator's in-flight working set).
	MaxTuples int64
	// MaxDepth caps lexical scope-chain depth (runaway nesting).
	MaxDepth int64
}

// SetLimits installs per-evaluation resource limits on the engine.
func (e *Engine) SetLimits(l Limits) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.limits = l
}

// Limits returns the currently installed resource limits.
func (e *Engine) Limits() Limits {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.limits
}

// Error is an evaluation error (a dynamic error in XQuery terms).
type Error struct {
	Msg string
}

func (e *Error) Error() string { return "xquery dynamic error: " + e.Msg }

func dynErr(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// EvalNaive evaluates without planning — the paper's strawman nested-loop
// pipeline — to a materialized sequence, binding the prolog's schema-import
// prefixes and the external variables ($p1, $p2, … for a translated
// prepared statement). It exists as the differential tests' byte oracle;
// production paths always plan and stream (EvalStream).
func (e *Engine) EvalNaive(ctx context.Context, q *xquery.Query, external map[string]xdm.Sequence) (xdm.Sequence, error) {
	counters := &evalCounters{}
	out, err := evalExpr(q.Body, e.rootScope(ctx, q, nil, external, counters))
	e.m.evaluated(counters)
	return out, err
}

// evaluated folds one finished evaluation's counters into the engine's.
func (m *engineMetrics) evaluated(c *evalCounters) {
	m.executed.Inc()
	m.steps.Add(c.steps)
	m.pruned.Add(c.pruned)
}

// evalCounters accumulates one evaluation's work. A single evaluation
// runs on one goroutine at a time — its reader's, under the cursor's
// lock — so plain increments suffice; totals fold into
// the engine's counters atomically when the evaluation completes. A
// morsel worker (parallel.go) owns its own set, marked worker: its
// rows/tuples restart at zero per morsel, so a limit trip there only ends
// the morsel early, and the worker fans out no further.
type evalCounters struct {
	steps  int64
	pruned int64
	rows   int64
	tuples int64
	worker bool
}

// scope is one cell of a lexical environment: the one binding it adds (a
// tuple cell is created per for/let per tuple — no map), chained to its
// parent, and the context item (nil when undefined). A cell never changes
// once bound — `return $x` hands out a slice of its inline item — except
// in a transient final segment (plan_exec.go's iter), whose consumer is
// done with a tuple before the next is pulled: there each op rebinds one
// cell.
// What the evaluation shares is in st.
type scope struct {
	parent *scope
	st     *evalState
	name   string
	value  xdm.Sequence
	item   [1]xdm.Item // value's backing array when bindItem bound one item
	ctx    xdm.Item
	depth  int64 // the chain's length, checked against limits.MaxDepth
}

// evalState is one evaluation's state, allocated once by rootScope. A
// morsel worker, a hoisted operand's cancellation-deaf evaluation and a
// shared table's build each run on a copy (scope.on): nothing writes
// through a shared one.
type evalState struct {
	vars     map[string]xdm.Sequence // the external variables
	engine   *Engine
	prefixes map[string]string
	goCtx    context.Context // checked at tuple boundaries, polled by step
	// done is goCtx.Done(), polled without blocking: a cancelCtx's Err
	// takes its mutex, so Err is read only once done has closed.
	done     <-chan struct{}
	counters *evalCounters // nil in scopes built outside an evaluation
	plan     *Plan         // nil = naive; FLWORs look themselves up in it
	limits   Limits
	tables   *evalTables // the shared hash tables (plan_exec.go), if any
}

func (n *scope) bind(name string, value xdm.Sequence) *scope {
	return &scope{parent: n, st: n.st, name: name, value: value, ctx: n.ctx, depth: n.depth + 1}
}

// bindItem is bind(name, xdm.SequenceOf(it)) with the item stored in the
// cell: a nil item binds the empty sequence.
func (n *scope) bindItem(name string, it xdm.Item) *scope {
	c := n.bind(name, nil)
	if it != nil {
		c.item[0] = it
		c.value = c.item[:]
	}
	return c
}

func (n *scope) withContext(it xdm.Item) *scope {
	return &scope{parent: n, st: n.st, ctx: it, depth: n.depth + 1}
}

// on returns a copy of cell n on its own copy of the evaluation state,
// under goCtx and counters: a morsel worker's or re-run's base, a hoisted
// operand's cancellation-deaf scope, a shared table's build scope.
func (n *scope) on(goCtx context.Context, counters *evalCounters) *scope {
	st := *n.st
	st.goCtx, st.done, st.counters = goCtx, doneOf(goCtx), counters
	c := *n
	c.st = &st
	return &c
}

// rootScope is one evaluation's outermost scope: the prolog's prefixes,
// the external bindings, and — when the plan shares hash tables — the
// evaluation's empty table set.
func (e *Engine) rootScope(ctx context.Context, q *xquery.Query, p *Plan, external map[string]xdm.Sequence, counters *evalCounters) *scope {
	st := &evalState{engine: e, prefixes: map[string]string{}, goCtx: ctx, done: doneOf(ctx), counters: counters, plan: p, limits: e.Limits()}
	for _, imp := range q.Prolog.SchemaImports {
		st.prefixes[imp.Prefix] = imp.Namespace
	}
	if len(external) > 0 {
		st.vars = make(map[string]xdm.Sequence, len(external))
		for k, v := range external {
			st.vars[k] = v
		}
	}
	env := &scope{st: st}
	if p != nil && p.tables > 0 {
		st.tables = &evalTables{root: env, tables: make([]sharedTable, p.tables)}
	}
	return env
}

// step counts one evaluator expression step, enforcing the depth guard and
// polling the context every 1024 steps so even expression-heavy
// evaluations with few tuple boundaries observe cancellation.
func (n *scope) step() error {
	return n.stepAt(n.depth)
}

// stepAt is step as a scope at the given depth on n's chain would charge it
// — how a column kernel charges the steps of the generic evaluation it
// replaces, which would have run on a scope bound below n.
func (n *scope) stepAt(depth int64) error {
	if n.st.counters == nil {
		return nil
	}
	n.st.counters.steps++
	if lim := n.st.limits.MaxDepth; lim > 0 && depth > lim {
		return n.limitErr("scope depth %d exceeds limit %d", depth, lim)
	}
	if n.st.counters.steps&1023 == 0 {
		return n.checkCancel()
	}
	return nil
}

// countRows charges k result items against MaxRows. In a morsel worker the
// counters hold only the current morsel's charges, which double as its
// charge ledger: parallel.go replays them against the serial counters at
// the merge point.
func (n *scope) countRows(k int) error {
	if n.st.counters == nil {
		return nil
	}
	n.st.counters.rows += int64(k)
	if lim := n.st.limits.MaxRows; lim > 0 && n.st.counters.rows > lim {
		return n.limitErr("result exceeds %d rows", lim)
	}
	return nil
}

// countTuple charges one for-bound tuple against MaxTuples, with the same
// per-morsel accounting as countRows.
func (n *scope) countTuple() error {
	if n.st.counters == nil {
		return nil
	}
	n.st.counters.tuples++
	if lim := n.st.limits.MaxTuples; lim > 0 && n.st.counters.tuples > lim {
		return n.limitErr("evaluation exceeds %d in-flight tuples", lim)
	}
	return nil
}

// limitErr builds the typed resource-limit error and counts the abort. A
// morsel worker's trip is not counted: the merge point re-runs that morsel
// serially, and the re-run's trip is the one that aborts the evaluation.
func (n *scope) limitErr(format string, args ...any) error {
	if !n.st.counters.worker {
		n.st.engine.m.limitHits.Inc()
	}
	return aqerr.Errorf(aqerr.KindResourceLimit, "evaluate", format, args...)
}

// prune counts tuples the planned executor skipped relative to the naive
// nested-loop pipeline.
func (n *scope) prune(count int64) {
	if c := n.st.counters; c != nil && count > 0 {
		c.pruned += count
	}
}

// checkCancel returns the context's error, if any — the evaluator calls it
// once per tuple.
func (n *scope) checkCancel() error {
	select {
	case <-n.st.done: // nil, and never ready, for a context that cannot be cancelled
		return n.st.goCtx.Err()
	default:
		return nil
	}
}

// doneOf is ctx.Done(), nil for a nil ctx.
func doneOf(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

func (n *scope) lookupVar(name string) (xdm.Sequence, bool) {
	for e := n; e != nil; e = e.parent {
		if e.name == name && name != "" {
			return e.value, true
		}
	}
	v, ok := n.st.vars[name]
	return v, ok
}

func (n *scope) namespace(prefix string) (string, bool) {
	ns, ok := n.st.prefixes[prefix]
	return ns, ok
}

// Call invokes a registered data service function directly — the driver's
// stored-procedure path, which bypasses translation entirely.
func (e *Engine) Call(namespace, local string, args []xdm.Sequence) (xdm.Sequence, error) {
	return e.CallContext(context.Background(), namespace, local, args)
}

// CallContext is Call under a cancelable context.
func (e *Engine) CallContext(ctx context.Context, namespace, local string, args []xdm.Sequence) (xdm.Sequence, error) {
	fn, ok := e.lookup(namespace, local)
	if !ok {
		return nil, dynErr("no data service function %s in namespace %s", local, namespace)
	}
	return fn(ctx, args)
}

// CompileAST statically checks and plans a query AST — built by the
// translator, or parsed from text with xquery.Parse (the textual front door
// the DSP server offers the driver's generated queries). external names
// the external variables the caller will bind at evaluation time ($p1…$pN
// for translated prepared statements). The returned plan is immutable and
// may be executed concurrently any number of times with EvalStream.
// Plans built here consult the engine's source statistics (stats.go) for
// cost annotations and hash-key selection; recompile after a stats refresh
// (the compile cache stamps artifacts with StatsGeneration) to pick up new
// numbers.
func (e *Engine) CompileAST(q *xquery.Query, external []string) (*Plan, error) {
	if err := e.Check(q, external); err != nil {
		return nil, err
	}
	p := NewPlanStats(q, e)
	e.m.plans.Inc()
	e.m.hashJoins.Add(int64(p.HashJoins))
	e.m.pushed.Add(int64(p.PredicatesPushed))
	e.m.hoisted.Add(int64(p.InvariantsHoisted))
	return p, nil
}
