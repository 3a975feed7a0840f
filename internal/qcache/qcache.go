// Package qcache is the compiled-query layer: it turns the translator's
// output into a first-class CompiledQuery artifact (translation + static
// check + immutable evaluator plan, with the compile-time stage trace
// attached) and caches those artifacts process-shared, keyed by
// (normalized query text, result mode) and served while their stamps
// hold.
//
// The paper's architecture puts a textual XQuery boundary between the
// JDBC driver and the DSP server: the driver serializes the generated
// query, the server re-parses, re-checks, and re-plans it on every
// statement. In-process, that boundary is pure waste. This package ends
// it: the translator's xquery AST is handed to the evaluator directly
// (xqeval.Engine.CompileAST — check + plan, no parse), and the finished
// artifact is reused across repeated statements, connections, and the
// facade. The textual serialize∘parse path survives as the sql2xq/xqrun
// process boundary and as the differential oracle the tests compare
// against.
//
// Cache semantics:
//
//   - keying — the query text is normalized by the SQL front end
//     (sqlparser.Front.Normalize: case-folded keywords and identifiers,
//     collapsed whitespace and comments), so trivially re-spelled
//     statements share one artifact; the result mode completes the key;
//   - staleness — each artifact carries a metadata stamp (Config.Stamp:
//     the platform sums the generations of the sources its statement
//     depends on) and the statistics generation its plan was costed
//     under, and a hit whose stamp has moved — a source invalidated, a
//     refresh that changed a table, a degradation event, a statistics
//     refresh — retires the artifact and recompiles it in its place,
//     while artifacts over other sources stay warm;
//   - single-flight population — concurrent misses on one key share one
//     compile;
//   - size bounds — at most MaxEntries artifacts are retained, evicted in
//     least-recently-used order;
//   - failures are never cached — a statement that fails to translate or
//     check recompiles (and re-fails) on each attempt, matching the
//     catalog cache's rule that only answers are cacheable.
package qcache

import (
	"container/list"
	"context"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obsv"
	"repro/internal/resultset"
	"repro/internal/sqlparser"
	"repro/internal/translator"
	"repro/internal/xqeval"
)

// DefaultMaxEntries bounds the cache when Config.MaxEntries is zero.
const DefaultMaxEntries = 256

// CompiledQuery is the compiled artifact every execution layer consumes:
// the completed translation (generated AST, result schema, parameter
// info, query contexts), the evaluator's immutable plan, and the stage
// trace recorded while compiling. It is immutable after Compile returns;
// any number of concurrent evaluations may share it.
type CompiledQuery struct {
	// SQL is the statement text the artifact was compiled from.
	SQL string
	// NormalizedSQL is the canonical key form (set when cached).
	NormalizedSQL string
	// Mode is the §4 result-handling mode the query was generated for.
	Mode translator.ResultMode
	// MetaStamp is the metadata stamp (Config.Stamp) read right after the
	// compile; the artifact is served only while the stamp still reads
	// the same.
	MetaStamp uint64
	// StatsGen is the evaluator's source-statistics epoch the artifact's
	// plan was costed under; a stats refresh retires the cache entry.
	StatsGen uint64
	// Res is the completed translation: AST, result schema, contexts.
	Res *translator.Result
	// Columns is Res.Columns as the result set's schema, facets included,
	// built once and shared read-only by every execution's rows.
	Columns []resultset.Column
	// Plan is the evaluator's immutable execution plan over Res.Query. It
	// carries the streaming decomposition (Plan.Stream) built at compile
	// time, so a cached statement streams rows without re-analyzing the
	// query shape on each execution.
	Plan *xqeval.Plan
	// Trace holds the compile-time stage spans (lex … generate, compile);
	// EXPLAIN renders it instead of re-translating. A compile renders no
	// query text, so the trace has no serialize span.
	Trace *obsv.Trace
	// CostScore is the plan's admission score (Plan.CostEstimate), computed
	// once at compile time so cost-aware admission is cache-hot: the server
	// weighs a statement without touching the plan again.
	CostScore int64
}

// Cost returns the artifact's admission score, always ≥ 1.
func (cq *CompiledQuery) Cost() int64 {
	if cq == nil || cq.CostScore < 1 {
		return 1
	}
	return cq.CostScore
}

// XQuery serializes the generated query — the textual form the legacy
// boundary ships; the compiled path never needs it to execute.
func (cq *CompiledQuery) XQuery() string { return cq.Res.XQuery() }

// ExternalVars lists the external variable names ($p1…$pN) the artifact's
// plan expects bound at evaluation time.
func (cq *CompiledQuery) ExternalVars() []string { return externalVars(cq.Res.ParamCount) }

// Streamable reports whether executions of this artifact deliver rows
// through a pull cursor (compile-time decomposition succeeded) rather than
// materializing the full result before the first row.
func (cq *CompiledQuery) Streamable() bool { return cq.Plan.Stream.Streamable() }

// Explain renders the artifact as EXPLAIN prints it, one line per element:
// the federation sources the statement resolved against,
// the compile-time stage trace (wall time, sizes, stage detail) with this
// call's own rendering of the query text as its serialize row, the
// caller's effects lines (what this call did to the caches), the
// query-context tree (the paper's Figure 4 view), the generated XQuery,
// and the evaluator plan with its streaming decomposition. Every section
// comes from the artifact, so rendering a cached statement translates
// nothing, and the artifact's trace is never written.
func (cq *CompiledQuery) Explain(effects ...string) []string {
	start := time.Now()
	xq := cq.XQuery()
	trace := cq.Trace.WithStage(obsv.StageEvent{Stage: obsv.StageSerialize, Duration: time.Since(start), OutSize: len(xq)})
	var out []string
	add := func(text string) {
		out = append(out, strings.Split(strings.TrimRight(text, "\n"), "\n")...)
	}
	if len(cq.Res.Sources) > 0 {
		add("-- sources: " + strings.Join(cq.Res.Sources, ", "))
	}
	add("-- stage trace:")
	add(trace.RenderString(true))
	out = append(out, effects...)
	add("-- query contexts (stage one):")
	add(cq.Res.Contexts.Tree())
	add("-- generated XQuery (stage three):")
	add(xq)
	add("-- query plan (evaluator):")
	for _, line := range cq.Plan.Describe() {
		add(line)
	}
	add("-- streaming: " + cq.Plan.Stream.Describe())
	return out
}

func externalVars(n int) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = "p" + strconv.Itoa(i+1)
	}
	return out
}

// Compile finishes the compile pipeline over a translation of text: it
// statically checks and plans the generated AST against the engine —
// recorded as the compile stage span on trace. A CompileFunc translates,
// then calls it.
func Compile(res *translator.Result, engine *xqeval.Engine, text string, trace *obsv.Trace) (*CompiledQuery, error) {
	sp := trace.StartStage(obsv.StageCompile)
	sp.SetInput(len(text))
	plan, err := engine.CompileAST(res.Query, externalVars(res.ParamCount))
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.Add("external", int64(res.ParamCount))
	sp.End()
	cols := make([]resultset.Column, len(res.Columns))
	for i, c := range res.Columns {
		cols[i] = resultset.Column{Label: c.Label, ElementName: c.ElementName,
			Type: c.Type, Nullable: c.Nullable, Precision: c.Precision, Scale: c.Scale}
	}
	return &CompiledQuery{SQL: text, Mode: res.Mode, Res: res, Columns: cols, Plan: plan, Trace: trace, CostScore: plan.CostEstimate()}, nil
}

// CompileFunc populates one cache miss. It receives the original (not
// normalized) query text.
type CompileFunc func(ctx context.Context, sql string) (*CompiledQuery, error)

// Config parameterizes a Cache.
type Config struct {
	// MaxEntries bounds the cache (LRU eviction beyond it). Zero means
	// DefaultMaxEntries; negative disables caching entirely — every Get
	// compiles (the degraded configuration, for memory-starved embedders).
	MaxEntries int
	// StatsGeneration supplies the evaluator's source-statistics epoch
	// (xqeval.Engine.StatsGeneration); nil pins it to zero. A hit on an
	// artifact whose plan was costed under an older epoch retires it: the
	// Get recompiles and picks up the fresh numbers.
	StatsGeneration func() uint64
	// Stamp reads an artifact's metadata stamp: a number that moves
	// whenever metadata the artifact's statement depends on may have
	// changed (the platform sums the generations of those sources). It is
	// read once after each compile and again on every hit, which serves
	// the artifact only while the two agree; so invalidating one source
	// retires only the artifacts that depend on it. Nil pins every stamp
	// to zero.
	Stamp func(*CompiledQuery) uint64
}

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Shared    int64
	Evictions int64
	// SourceRetirements counts entries dropped because their metadata
	// stamp moved since the store: a source their statement depends on
	// advanced its generation.
	SourceRetirements int64
	// Size is the current entry count; MaxEntries the configured bound.
	Size       int
	MaxEntries int
	// StatsGeneration is the statistics epoch a fresh artifact carries.
	StatsGeneration uint64
}

// Key identifies one cached artifact.
type Key struct {
	SQL  string // normalized form
	Mode translator.ResultMode
}

// Cache is the shared compiled-query cache. It is safe for concurrent
// use; one instance is shared by every connection of a driver Server and
// by the facade of the owning Platform.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used; values are *entry
	flights map[Key]*flight
	stats   Stats
}

type entry struct {
	key Key
	cq  *CompiledQuery
}

// flight is one in-progress compile; concurrent lookups of the same key
// wait on done and share the result.
type flight struct {
	done chan struct{}
	cq   *CompiledQuery
	err  error
}

// New builds a cache with the given configuration.
func New(cfg Config) *Cache {
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	return &Cache{
		cfg:     cfg,
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
		flights: make(map[Key]*flight),
	}
}

func (c *Cache) statsGeneration() uint64 {
	if c.cfg.StatsGeneration == nil {
		return 0
	}
	return c.cfg.StatsGeneration()
}

// Get returns the compiled artifact for sql in the given mode, compiling
// (at most once per key, however many callers race) on a miss. hit
// reports whether the artifact was reused — from the cache or from
// another caller's in-flight compile — rather than compiled by this call.
// A cached artifact whose metadata stamp has moved is retired and
// recompiled. SQL that does not lex bypasses the cache so compile
// surfaces the canonical error.
func (c *Cache) Get(ctx context.Context, text string, mode translator.ResultMode, compile CompileFunc) (*CompiledQuery, bool, error) {
	norm, err := sqlparser.Front{}.Normalize(text)
	if err != nil {
		cq, cerr := compile(ctx, text)
		return cq, false, cerr
	}
	// The generation and stamp reads happen outside c.mu, so a hook that
	// consults other locks (the platform's metadata stack) never nests
	// inside the cache's.
	key := Key{SQL: norm, Mode: mode}
	sgen := c.statsGeneration()
	if c.cfg.MaxEntries < 0 {
		cq, cerr := compile(ctx, text)
		if cerr == nil {
			c.stamp(cq, norm, sgen)
		}
		return cq, false, cerr
	}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		cq := el.Value.(*entry).cq
		c.mu.Unlock()
		moved := c.metaStamp(cq) != cq.MetaStamp
		c.mu.Lock()
		if !moved && cq.StatsGen == sgen {
			if el, ok := c.entries[key]; ok {
				c.lru.MoveToFront(el)
			}
			c.stats.Hits++
			c.mu.Unlock()
			return cq, true, nil
		}
		// A source the statement depends on, or the statistics, moved:
		// retire this entry (only this entry — artifacts over other sources
		// stay warm) and fall through to the miss path, which stores the
		// recompiled artifact in its place.
		if el, ok := c.entries[key]; ok && el.Value.(*entry).cq == cq {
			c.lru.Remove(el)
			delete(c.entries, key)
			if moved {
				c.stats.SourceRetirements++
			}
		}
	}
	if fl, ok := c.flights[key]; ok {
		c.stats.Shared++
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if fl.err != nil {
			return nil, false, fl.err
		}
		return fl.cq, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	c.stats.Misses++
	c.mu.Unlock()

	cq, err := compile(ctx, text)
	if err == nil {
		c.stamp(cq, norm, sgen)
	}

	c.mu.Lock()
	if err == nil {
		c.storeLocked(key, cq)
	}
	fl.cq, fl.err = cq, err
	delete(c.flights, key)
	c.mu.Unlock()
	close(fl.done)
	return cq, false, err
}

// metaStamp reads cq's current metadata stamp through Config.Stamp.
// Called outside c.mu (the hook may take platform locks).
func (c *Cache) metaStamp(cq *CompiledQuery) uint64 {
	if c.cfg.Stamp == nil {
		return 0
	}
	return c.cfg.Stamp(cq)
}

// stamp records on a fresh artifact its normalized text, the statistics
// generation read before its compile and its metadata stamp: the stamps
// Fresh checks. The sources a statement depends on are only known after
// translation, so the metadata stamp is read post-compile: an
// invalidation racing the compile can be stamped although the compile's
// lookups mostly preceded it, a narrow window the next invalidation
// closes (it moves the stamp again and retires the entry). Called
// outside c.mu.
func (c *Cache) stamp(cq *CompiledQuery, norm string, sgen uint64) {
	cq.NormalizedSQL, cq.StatsGen = norm, sgen
	cq.MetaStamp = c.metaStamp(cq)
}

// Fresh reports whether cq was compiled under the current statistics
// generation with its metadata stamp unmoved: how a prepared statement
// checks its artifact instead of resolving its text again. Called outside
// c.mu.
func (c *Cache) Fresh(cq *CompiledQuery) bool {
	return cq.StatsGen == c.statsGeneration() && cq.MetaStamp == c.metaStamp(cq)
}

// storeLocked inserts (or refreshes) an artifact and evicts beyond the
// size bound. Callers hold c.mu.
func (c *Cache) storeLocked(key Key, cq *CompiledQuery) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).cq = cq
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, cq: cq})
	for c.lru.Len() > c.cfg.MaxEntries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() Stats {
	sgen := c.statsGeneration()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.lru.Len()
	s.MaxEntries = c.cfg.MaxEntries
	s.StatsGeneration = sgen
	return s
}
