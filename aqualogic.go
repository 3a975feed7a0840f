// Package aqualogic is a from-scratch reproduction of the system described
// in "SQL to XQuery Translation in the AquaLogic Data Services Platform"
// (ICDE 2006): a SQL-92 SELECT → XQuery translator, the JDBC-style driver
// built around it, and the substrates it needs — an XQuery data model and
// evaluator standing in for the AquaLogic DSP server, and a catalog of data
// service metadata standing in for the platform's remote metadata API.
//
// The package is a facade over the internal packages:
//
//	internal/qfront     typed query AST + the Frontend seam the kernel reads
//	internal/sqlparser  SQL-92 SELECT lexer/parser (translation stage one)
//	internal/translator three-stage translation kernel (the paper's
//	                    core contribution: contexts, resultset nodes,
//	                    typed generation, §4 result wrappers)
//	internal/catalog    application/data-service metadata + cache
//	internal/xquery     generated-XQuery AST and serializer
//	internal/xqeval     XQuery engine executing generated queries
//	internal/resultset  XML and text-mode result decoding
//	internal/driver     database/sql driver ("the JDBC driver")
//
// Quick start:
//
//	p := aqualogic.Demo()
//	rows, err := p.Query("SELECT CUSTOMERNAME, CITY FROM CUSTOMERS WHERE CUSTOMERID < ?", 1010)
//
// or through database/sql:
//
//	aqualogic.Demo().RegisterDriver("demo")
//	db, err := sql.Open("aqualogic", "demo")
package aqualogic

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/driver"
	"repro/internal/faultnet"
	"repro/internal/obsv"
	"repro/internal/qcache"
	"repro/internal/qfront"
	"repro/internal/remoteclient"
	"repro/internal/resilient"
	"repro/internal/resultset"
	"repro/internal/sqlparser"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// Dialect names a query language. SQL-92 is the only one; the alias and
// DialectSQL stay for benchmark/aqlbench, which calls the CompileDialect
// and QueryDialect shims, until ROADMAP item 1(c) moves it off them.
type Dialect = qfront.Dialect

// DialectSQL is the SQL-92 front end's name.
const DialectSQL = qfront.DialectSQL

// Re-exported core types, so library users need only this package for the
// common paths.
type (
	// Application is DSP application metadata: the SQL catalog.
	Application = catalog.Application
	// DSFile is one data service (.ds) file: the SQL schema.
	DSFile = catalog.DSFile
	// Function is a data service function: a SQL table (parameterless)
	// or stored procedure (parameterized).
	Function = catalog.Function
	// Column is one column of a function's flat row type.
	Column = catalog.Column
	// Parameter is a formal parameter of a parameterized function.
	Parameter = catalog.Parameter
	// Engine is the XQuery engine data service functions register with.
	Engine = xqeval.Engine
	// Translation is a completed SQL→XQuery translation.
	Translation = translator.Result
	// ResultColumn describes one output column of a translation.
	ResultColumn = translator.ResultColumn
	// Rows is a decoded, scrollable result set.
	Rows = resultset.Rows
	// Element is a row element of the XML data model (for implementing
	// custom data service functions).
	Element = xdm.Element
	// Sequence is an XQuery value sequence.
	Sequence = xdm.Sequence
	// PipelineStats is a snapshot of one platform's pipeline metrics
	// (counters plus per-stage timing aggregates); see Platform.Stats.
	PipelineStats = obsv.Snapshot
	// RemoteStats are the remote clients' retry counters; see Stats.
	RemoteStats = remoteclient.RetryStats
	// CompiledQuery is the compiled-query artifact: the completed
	// translation, the evaluator's plan (checked and built straight from
	// the generated AST — no serialize→reparse round trip), and the
	// compile-time stage trace. CompileContext returns it; the shared
	// compile cache stores it.
	CompiledQuery = qcache.CompiledQuery
	// CompileCacheStats snapshots the shared compile cache's counters
	// (hits, misses, single-flight shares, evictions, source retirements,
	// size, current statistics generation).
	CompileCacheStats = qcache.Stats
	// QueryError is the typed error the resilience layer raises: every
	// failure carries a Kind (transient, permanent, unavailable, timeout,
	// resource limit, internal) the caller can switch on with errors.As.
	QueryError = aqerr.QueryError
	// ErrorKind classifies a QueryError.
	ErrorKind = aqerr.Kind
	// ResilienceConfig is the knob set EnableResilience applies: retries,
	// circuit breakers, metadata staleness, result-size caps, and the
	// default statement timeout.
	ResilienceConfig = resilient.Config
	// FaultConfig parameterizes the fault-injection net EnableFaults
	// installs (seed, rate, fault kinds).
	FaultConfig = faultnet.Config
	// FaultInjector is the installed chaos layer; its Report lists every
	// registered fault point with per-kind injection counts.
	FaultInjector = faultnet.Injector
	// FaultKind is one injectable fault class.
	FaultKind = faultnet.Kind
	// EvalLimits caps evaluator resources (rows, tuples, recursion depth).
	EvalLimits = xqeval.Limits
	// SourceStats is one data service's collected statistics (row count,
	// per-column distinct estimates, average row width) — the cost model's
	// input, populated on a source's first scan.
	SourceStats = xqeval.SourceStats
	// Federation is the platform's metadata stack: named metadata
	// sources resolved together — the App first, then each AddSource
	// backend — each behind its own cache and generation.
	Federation = catalog.Federation
	// PartitionSpec declares a horizontally partitioned data service:
	// shard functions (possibly on different sources), the shard key, and
	// an optional shard-routing function enabling partition pruning.
	PartitionSpec = xqeval.PartitionSpec
	// ShardSpec names one shard of a partitioned data service.
	ShardSpec = xqeval.ShardSpec
	// Atomic is an XQuery atomic value — what PartitionSpec.ShardFor
	// routes on (compare with its Lexical form or a typed accessor).
	Atomic = xdm.Atomic
	// BreakerState is a circuit breaker's position (closed, open,
	// half-open); FederationStats reports one per data service breaker.
	BreakerState = resilient.BreakerState
)

// Error kinds a QueryError can carry.
const (
	ErrTransient     = aqerr.KindTransient
	ErrPermanent     = aqerr.KindPermanent
	ErrUnavailable   = aqerr.KindUnavailable
	ErrTimeout       = aqerr.KindTimeout
	ErrResourceLimit = aqerr.KindResourceLimit
	ErrInternal      = aqerr.KindInternal
)

// Injectable fault kinds for FaultConfig.Kinds.
const (
	FaultTransient = faultnet.KindTransient
	FaultPermanent = faultnet.KindPermanent
	FaultLatency   = faultnet.KindLatency
	FaultStall     = faultnet.KindStall
	FaultTruncate  = faultnet.KindTruncate
	FaultPanic     = faultnet.KindPanic
)

// SQL column types for building catalogs.
const (
	SQLInteger   = catalog.SQLInteger
	SQLSmallint  = catalog.SQLSmallint
	SQLDecimal   = catalog.SQLDecimal
	SQLDouble    = catalog.SQLDouble
	SQLVarchar   = catalog.SQLVarchar
	SQLChar      = catalog.SQLChar
	SQLBoolean   = catalog.SQLBoolean
	SQLDate      = catalog.SQLDate
	SQLTime      = catalog.SQLTime
	SQLTimestamp = catalog.SQLTimestamp
)

// ResultMode selects §4 result handling.
type ResultMode = translator.ResultMode

// Result modes.
const (
	ModeXML  = translator.ModeXML
	ModeText = translator.ModeText
)

// NewEngine creates an empty XQuery engine.
func NewEngine() *Engine { return xqeval.New() }

// NewRelationalImport builds the function metadata a DSP relational import
// would produce for a table (paper Example 2).
func NewRelationalImport(path, name string, cols []Column) *Function {
	return catalog.NewRelationalImport(path, name, cols)
}

// Platform bundles an application's metadata with the engine serving its
// data: one AquaLogic-DSP-shaped deployment.
type Platform struct {
	App    *Application
	Engine *Engine

	// MetadataLatency, when set, simulates the round trip of the remote
	// metadata API on every uncached lookup.
	MetadataLatency time.Duration

	// cacheMu guards the setup state below. fed and qc are built together
	// on first use and dropped together when setup changes the stack (the
	// next use rebuilds both; prepared statements see the new cache and
	// recompile), so one compile cache only ever sees one federation's
	// backends.
	cacheMu    sync.Mutex
	fed        *catalog.Federation
	qc         *qcache.Cache
	resilience *resilient.Config
	injector   *faultnet.Injector
	guard      *resilient.EngineGuard

	// The counts the platform owns: translations by outcome, per-stage
	// times, and the retries its defenses make. Stats reads them next to
	// its engine's, its injector's and its breakers' own.
	translated, translateErrors obsv.Counter
	stages                      obsv.StageTimes
	retries                     resilient.Counters

	// sources are the backends added with AddSource, registered in the
	// federation after the App.
	sources []namedSource
}

// namedSource is one federation backend registered with AddSource.
type namedSource struct {
	name string
	src  catalog.Source
}

// New creates a platform over application metadata and an engine.
func New(app *Application, engine *Engine) *Platform {
	return &Platform{App: app, Engine: engine}
}

// Demo builds the paper's example application (CUSTOMERS, PAYMENTS,
// PO_CUSTOMERS, PO_ITEMS plus the getCustomerById procedure) with the
// default synthetic dataset.
func Demo() *Platform {
	app, _, engine := demo.Setup(demo.DefaultSizes)
	return New(app, engine)
}

// EnableFaults installs the fault-injection net: the metadata source and
// every data service call become registered fault points that misbehave
// (transient/permanent errors, latency, stalls, truncation, panics) on the
// injector's deterministic seeded schedule. Call it during setup, before
// EnableResilience, so the defenses wrap the faults the way they would
// wrap a real flaky network. The returned injector's Report lists every
// fault point with per-kind injection counts.
func (p *Platform) EnableFaults(cfg FaultConfig) *FaultInjector {
	inj := faultnet.New(cfg)
	p.cacheMu.Lock()
	p.injector = inj
	p.fed, p.qc = nil, nil // rebuild the metadata stack with the chaos layer inside
	p.cacheMu.Unlock()
	p.Engine.InvalidateSourceStats() // sources now misbehave; observations are stale
	p.Engine.Use(inj.Middleware())
	return inj
}

// EnableResilience arms the platform's defenses: retries with backoff
// around metadata lookups and data service calls, a circuit breaker per
// data service, panic containment, stale-while-revalidate metadata
// serving (StaleTTL), evaluator resource caps (MaxRows), and a default
// statement deadline (QueryTimeout) for the driver. Call it during setup,
// after any EnableFaults.
func (p *Platform) EnableResilience(cfg ResilienceConfig) {
	cfg = cfg.WithDefaults()
	guard := resilient.NewEngineGuard(cfg, &p.retries)
	p.cacheMu.Lock()
	p.resilience = &cfg
	p.guard = guard
	p.fed, p.qc = nil, nil // rebuild with retries, staleness and CompileCacheEntries
	p.cacheMu.Unlock()
	p.Engine.InvalidateSourceStats() // the rebuilt stack may change what scans observe
	p.Engine.Use(guard.Middleware())
	if cfg.MaxRows > 0 {
		lim := p.Engine.Limits()
		lim.MaxRows = cfg.MaxRows
		p.Engine.SetLimits(lim)
	}
}

// AddSource registers an extra federation backend under a name: its
// tables and procedures become resolvable alongside the App's (the
// federation's first backend, named App.Name), behind the backend's own
// metadata cache and generation. Unqualified table names resolve across
// every backend (colliding names raise a typed AmbiguousError listing
// the sources), and a source-qualified name (`billing.INVOICES`) pins
// resolution to one backend without touching the others. Call during
// setup; adding a source rebuilds the metadata stack and the compile
// cache.
func (p *Platform) AddSource(name string, src catalog.Source) error {
	if name == "" || src == nil {
		return fmt.Errorf("aqualogic: AddSource requires a name and a source")
	}
	p.cacheMu.Lock()
	if strings.EqualFold(name, p.App.Name) {
		p.cacheMu.Unlock()
		return fmt.Errorf("aqualogic: source %s collides with the application name", name)
	}
	for _, ns := range p.sources {
		if strings.EqualFold(ns.name, name) {
			p.cacheMu.Unlock()
			return fmt.Errorf("aqualogic: source %s already registered", name)
		}
	}
	p.sources = append(p.sources, namedSource{name: name, src: src})
	p.fed, p.qc = nil, nil
	p.cacheMu.Unlock()
	p.Engine.InvalidateSourceStats() // new names may shadow observed sources
	return nil
}

// SourceNames lists the federation's backends in registration order (the
// App first). A platform with no added sources reports just the App.
func (p *Platform) SourceNames() []string {
	return p.metaSource().SourceNames()
}

// InvalidateSourceMetadata drops one backend's cached metadata and
// advances that backend's generation, retiring only the compiled
// artifacts whose statements depend on it — the other backends' caches and
// artifacts stay warm. The App's backend is named App.Name; an unknown
// name invalidates nothing.
func (p *Platform) InvalidateSourceMetadata(name string) {
	p.metaSource().InvalidateSource(name)
}

// metaSource returns the platform's metadata stack: a federation whose
// first backend is the App and whose others are the AddSource backends.
// Each backend is built inside out — source (→ simulated remote, for the
// App) (→ fault injection) (→ retries) — and the federation puts its own
// client-side cache with stale-serving in front of each, so one
// backend's faults or invalidations stay its own. Lazy construction is
// guarded so concurrent callers (parallel compiles, queries, database/sql
// connections) share one stack.
func (p *Platform) metaSource() *catalog.Federation {
	fed, _ := p.stack()
	return fed
}

// queryCache returns the platform's shared compiled-query cache. The same
// instance backs every compile and query on the facade and every
// connection of a registered driver.
func (p *Platform) queryCache() *qcache.Cache {
	_, qc := p.stack()
	return qc
}

// stack builds the federation and the compile cache over it together, on
// first use after setup. An artifact's metadata stamp sums the generations
// of the backends its statement depends on: the ones its tables resolved
// against, or all of them once a name was not pinned to its source.
func (p *Platform) stack() (*catalog.Federation, *qcache.Cache) {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	if p.fed == nil {
		fed := catalog.NewFederation(p.App.Name)
		cfg := qcache.Config{
			StatsGeneration: p.Engine.StatsGeneration,
			Stamp: func(cq *qcache.CompiledQuery) uint64 {
				return fed.Stamp(cq.Res.Sources, cq.Res.Unpinned)
			},
		}
		if p.resilience != nil {
			fed.FreshFor = p.resilience.StaleTTL
			cfg.MaxEntries = p.resilience.CompileCacheEntries
		}
		var app catalog.Source = p.App
		if p.MetadataLatency > 0 {
			app = &catalog.Remote{Inner: p.App, Latency: p.MetadataLatency}
		}
		if p.injector != nil {
			// Unprefixed points ("meta/<ref>"): seeded chaos schedules
			// over the App keep their sites whatever else is registered.
			app = p.injector.Source(app)
		}
		fed.Register(p.App.Name, p.withRetries(app))
		for _, ns := range p.sources {
			src := ns.src
			if p.injector != nil {
				src = p.injector.SourceNamed(ns.name, src)
			}
			fed.Register(ns.name, p.withRetries(src))
		}
		p.fed, p.qc = fed, qcache.New(cfg)
	}
	return p.fed, p.qc
}

// withRetries wraps one backend in the retry layer once EnableResilience
// has armed it. Callers hold cacheMu.
func (p *Platform) withRetries(src catalog.Source) catalog.Source {
	if p.resilience != nil {
		src = resilient.NewSource(src, *p.resilience, &p.retries)
	}
	return src
}

// CompileContext translates, statically checks, and plans a SQL SELECT
// once, returning the compiled-query artifact — the AST handed to the
// evaluator directly, with no serialize→reparse round trip. Artifacts are
// cached in the platform's shared compile cache keyed by (normalized SQL,
// result mode) and served while the sources they depend on stand;
// repeated compiles and queries of equivalent statements reuse one
// compilation. ctx bounds metadata
// fetches. The benchmark (benchmark/README.md) calls it.
func (p *Platform) CompileContext(ctx context.Context, sql string, mode ResultMode) (*CompiledQuery, error) {
	cq, _, err := p.compile(ctx, sql, mode)
	return cq, err
}

// CompileDialect is CompileContext for DialectSQL; any other dialect is a
// typed permanent error. It stays because benchmark/aqlbench overrides it,
// until ROADMAP item 1(c) moves the benchmark off it.
func (p *Platform) CompileDialect(ctx context.Context, dialect Dialect, text string, mode ResultMode) (*CompiledQuery, error) {
	if err := sqlOnly(dialect); err != nil {
		return nil, err
	}
	return p.CompileContext(ctx, text, mode)
}

// sqlOnly refuses any dialect but SQL-92 as the caller's permanent
// mistake.
func sqlOnly(dialect Dialect) error {
	_, err := qfront.Lookup(dialect)
	return classify("compile", err)
}

// compile is the one compile step behind the facade and every database/sql
// statement: it resolves text through the shared compile cache,
// translating, checking and planning only on a miss. hit reports artifact
// reuse, which EXPLAIN's compile-cache line shows.
func (p *Platform) compile(ctx context.Context, text string, mode ResultMode) (cq *CompiledQuery, hit bool, err error) {
	cq, hit, err = p.queryCache().Get(ctx, text, mode, func(ctx context.Context, text string) (*qcache.CompiledQuery, error) {
		tr := obsv.NewTrace(text) // its stages fold into the platform's histograms
		tr.Hook = p.stages.Observe
		res, err := p.translate(ctx, text, mode, tr)
		if err != nil {
			return nil, err
		}
		return qcache.Compile(res, p.Engine, text, tr)
	})
	return cq, hit, classify("compile", err)
}

// classify types an error compile or execute returns: aqerr.Wrap's
// classes first, then whatever is still untyped — a syntax or semantic
// error, an unknown dialect, a statement failing at open — as the
// caller's permanent mistake, so it keeps its kind across the wire.
func classify(op string, err error) error {
	if err == nil {
		return nil // before qe, which escapes: a success allocates nothing
	}
	err = aqerr.Wrap(op, err)
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) {
		return aqerr.New(aqerr.KindPermanent, op, err)
	}
	return err
}

// translate is the platform's one translation step, counted by outcome.
func (p *Platform) translate(ctx context.Context, text string, mode ResultMode, tr *obsv.Trace) (*Translation, error) {
	res, err := p.Translator(mode).TranslateFrontend(ctx, sqlparser.Front{}, text, tr)
	if err != nil {
		p.translateErrors.Inc()
	} else {
		p.translated.Inc()
	}
	return res, err
}

// CompileStats reports the platform's compile cache counters. They belong
// to this platform alone; no process-wide total mirrors them.
func (p *Platform) CompileStats() CompileCacheStats {
	return p.queryCache().Stats()
}

// MetadataSource answers table/procedure metadata lookups — the
// catalog-facing surface the network server re-exports over the wire and
// the remote client implements on the other side.
type MetadataSource = catalog.Source

// Metadata returns the platform's metadata source: the full stack built
// by metaSource (remote simulation, fault injection, retries, client-side
// cache), shared with every translator and driver connection. The network
// server front end (internal/server) serves its metadata endpoints from
// exactly this source, so remote and in-process metadata browsing see the
// same cache, the same staleness behavior, and the same fault points.
func (p *Platform) Metadata() MetadataSource {
	return p.metaSource()
}

// Translator returns a translator over the platform's (cached) metadata.
func (p *Platform) Translator(mode ResultMode) *translator.Translator {
	tr := translator.New(p.metaSource())
	tr.Options.Mode = mode
	return tr
}

// Translate converts a SQL-92 SELECT into XQuery, returning the full
// translation (generated query, result schema, parameter info); its
// XQuery method renders the query text.
func (p *Platform) Translate(sql string, mode ResultMode) (*Translation, error) {
	return p.translate(context.Background(), sql, mode, nil)
}

// Query translates and executes a SELECT end to end, binding the given
// parameter values to `?` markers. It uses the §4 text-mode path, the
// driver's default. The returned Rows is a thin view over a pull cursor:
// each Next evaluates and decodes the next row, and Close ends the
// evaluation where it stands. Call rows.Materialize() — or any
// scroll operation (Len, Reset), which materializes implicitly — for a
// scrollable result; check rows.Err() after iterating, since errors can
// strike mid-stream.
func (p *Platform) Query(sql string, args ...any) (*Rows, error) {
	return p.QueryStreamMode(context.Background(), ModeText, sql, args...)
}

// QueryStreamMode is the full streaming entry point: compile (cached), bind
// parameters, start the evaluation, and return a Rows over the row cursor.
// The evaluation runs as the rows are read, on the reading goroutine: each
// rows.Next evaluates only what it hands out — ORDER BY and GROUP BY
// segments are the only materialization barriers — so the first row is
// available long before the last one is computed, and FETCH FIRST n stops
// the evaluation after n rows. Errors that precede the first row (unknown
// tables, bad parameters, sources failing at open) are returned here
// synchronously; later ones via rows.Err(). Cancelling ctx aborts the
// evaluation at the next tuple boundary, surfacing through rows.Err(). The
// benchmark (benchmark/README.md) calls it.
func (p *Platform) QueryStreamMode(ctx context.Context, mode ResultMode, sql string, args ...any) (*Rows, error) {
	cq, _, err := p.compile(ctx, sql, mode)
	if err != nil {
		return nil, err
	}
	return p.execute(ctx, cq, args)
}

// QueryDialect is QueryStreamMode for DialectSQL; any other dialect is a
// typed permanent error. It stays because benchmark/aqlbench overrides it,
// until ROADMAP item 1(c) moves the benchmark off it.
func (p *Platform) QueryDialect(ctx context.Context, dialect Dialect, mode ResultMode, text string, args ...any) (*Rows, error) {
	if err := sqlOnly(dialect); err != nil {
		return nil, err
	}
	return p.QueryStreamMode(ctx, mode, text, args...)
}

// execute is the one bind → evaluate → decode tail behind the facade and
// every prepared statement. A wrong parameter count, or a parameter that
// does not convert, is the caller's error, typed permanent with the
// message the wire client gives.
// Priming pulls the first chunk, so errors raised before any row exists
// (unbound sources, source faults at open) return here; later ones surface
// through rows.Err(). Every execution is counted in the platform's stage
// histograms: the cursor clocks evaluate, and decode over the result's
// whole delivery window, and folds both in when the result ends (an
// execution failing at Prime counts evaluate alone). The clock lives in
// the cursor rather than wrapping it, so a text-mode result keeps
// NextText's raw path (the server's chunks).
func (p *Platform) execute(ctx context.Context, cq *CompiledQuery, args []any) (*Rows, error) {
	if len(args) != cq.Res.ParamCount {
		return nil, aqerr.Errorf(aqerr.KindPermanent, "execute", "statement has %d parameter(s), got %d value(s)", cq.Res.ParamCount, len(args))
	}
	// Built here rather than returned from a helper: the evaluator copies
	// the bindings out, so the map stays off the heap.
	ext := make(map[string]Sequence, len(args))
	for i, a := range args {
		v, err := ToAtomic(a)
		if err != nil {
			return nil, aqerr.Errorf(aqerr.KindPermanent, "execute", "parameter %d: %v", i+1, err)
		}
		ext[fmt.Sprintf("p%d", i+1)] = xdm.SequenceOf(v)
	}
	cur := p.Engine.EvalStream(ctx, cq.Plan, ext, &p.stages)
	if err := cur.Prime(); err != nil {
		cur.Close()
		return nil, classify("query", err)
	}
	var rc resultset.RowCursor
	if cq.Res.Mode == ModeText {
		rc = resultset.StreamText(cur, cq.Columns)
	} else {
		rc = resultset.StreamXML(cur, cq.Columns)
	}
	return resultset.NewStreaming(rc), nil
}

// RegisterDriver exposes the platform through database/sql under the given
// DSN name: sql.Open("aqualogic", name). Connections read the platform's
// live state, so sources, views and resilience settings added after
// registration reach them.
func (p *Platform) RegisterDriver(name string) {
	driver.Register(name, p)
}

// MetadataStats reports the metadata cache's hit/miss counters, summed
// over the backends; FederationStats breaks them out per source.
func (p *Platform) MetadataStats() catalog.CacheStats {
	return p.metaSource().Stats()
}

// SourceHealth is one federation backend's health snapshot: its metadata
// cache counters, its current generation, and the circuit breakers of
// the data services registered against it.
type SourceHealth struct {
	// Name is the backend's registration name.
	Name string
	// Generation is the backend's metadata epoch (advanced by
	// invalidations, refresh changes, and degradation transitions).
	Generation uint64
	// Metadata is the backend's cache counters.
	Metadata catalog.CacheStats
	// Breakers maps data service names to breaker state for services
	// registered against this source (the App owns services registered
	// without a source tag). Nil until EnableResilience has installed the
	// guard and calls have exercised it.
	Breakers map[string]BreakerState
}

// FederationStats snapshots every backend's health in registration
// order, the App first: a single-source platform reports one source.
func (p *Platform) FederationStats() []SourceHealth {
	fed := p.metaSource()
	p.cacheMu.Lock()
	guard := p.guard
	p.cacheMu.Unlock()
	var breakers map[string]*resilient.Breaker
	if guard != nil {
		breakers = guard.Breakers()
	}
	names := fed.SourceNames()
	out := make([]SourceHealth, 0, len(names))
	for _, name := range names {
		h := SourceHealth{Name: name, Generation: fed.SourceGeneration(name)}
		if st, ok := fed.SourceStats(name); ok {
			h.Metadata = st
		}
		for svc, br := range breakers {
			// Source-tagged registrations name breakers "<source>/<local>";
			// untagged ones (in-process App functions) have no slash.
			if i := strings.IndexByte(svc, '/'); i >= 0 {
				if !strings.EqualFold(svc[:i], name) {
					continue
				}
			} else if !strings.EqualFold(name, p.App.Name) {
				continue
			}
			if h.Breakers == nil {
				h.Breakers = map[string]BreakerState{}
			}
			h.Breakers[svc] = br.State()
		}
		out = append(out, h)
	}
	return out
}

// Stats snapshots the platform's pipeline metrics, each read from the
// object that counts it: translations and per-stage times are the
// platform's; evaluations, rows, planner, parallel and federation
// counters its engine's; injected faults its injector's Report; retries,
// contained panics and breaker figures its defenses'. Two platforms never
// add into each other's figures. Cache counters are not among them: see
// MetadataStats and CompileStats.
func (p *Platform) Stats() PipelineStats {
	s := p.Engine.Stats()
	s.QueriesTranslated, s.TranslateErrors = p.translated.Load(), p.translateErrors.Load()
	s.Retries, s.RetrySuccesses, s.PanicsRecovered = p.retries.Retries.Load(), p.retries.Rescued.Load(), p.retries.Panics.Load()
	p.cacheMu.Lock()
	inj, guard := p.injector, p.guard
	p.cacheMu.Unlock()
	if inj != nil {
		for _, site := range inj.Report() {
			s.FaultsInjected += site.Total()
		}
	}
	if guard != nil {
		for _, br := range guard.Breakers() {
			opens, fastFails := br.Stats()
			s.BreakerOpens += opens
			s.BreakerFastFails += fastFails
		}
	}
	s.Stages = p.stages.Snapshot()
	return s
}

// Stats reports the retry counters of every remote client in the process
// (the wire client behind aql:// DSNs): the only process-wide counters.
// Everything a platform counts is read through Platform.Stats.
func Stats() RemoteStats {
	return remoteclient.Retries()
}

// ToAtomic converts a Go value to an XQuery atomic value, accepting the
// types database/sql users pass as parameters.
func ToAtomic(v any) (xdm.Atomic, error) {
	return xdm.FromGo(v)
}

// RegisterRows installs a parameterless data service function returning
// fixed rows on an engine — the quickest way to serve custom data.
func RegisterRows(e *Engine, namespace, local string, rows []*Element) {
	e.RegisterRows(namespace, local, rows)
}

// NewRow builds a flat row element: NewRow("CUSTOMERS", "CUSTOMERID", "55",
// "CUSTOMERNAME", "Joe"). Empty values are skipped (SQL NULL).
func NewRow(rowElement string, colValuePairs ...string) *Element {
	row := xdm.NewElement(rowElement)
	for i := 0; i+1 < len(colValuePairs); i += 2 {
		if colValuePairs[i+1] != "" {
			row.AddChild(xdm.NewTextElement(colValuePairs[i], colValuePairs[i+1]))
		}
	}
	return row
}

// DefineView registers a logical data service: a new data service function
// whose body is a SQL view over existing data services — the paper's §2
// layering, where logical data services are authored on top of physical
// ones and are themselves queryable (and further composable). The view is
// translated and planned once; each call evaluates the stored plan under
// the calling query's context — so cancelling or timing out that query
// reaches the view's own data service calls — and returns flat rows
// shaped like any physical function's.
//
// The view appears as table `name` in schema `path/name`, with columns
// named by the view's (necessarily unique) output labels.
func (p *Platform) DefineView(path, name, sql string) error {
	res, err := p.Translate(sql, ModeXML)
	if err != nil {
		return fmt.Errorf("aqualogic: define view %s: %w", name, err)
	}
	if res.ParamCount != 0 {
		return fmt.Errorf("aqualogic: define view %s: views cannot contain parameter markers", name)
	}
	plan, err := p.Engine.CompileAST(res.Query, nil)
	if err != nil {
		return fmt.Errorf("aqualogic: define view %s: %w", name, err)
	}
	seen := map[string]bool{}
	cols := make([]Column, len(res.Columns))
	for i, c := range res.Columns {
		label := strings.ToUpper(c.Label)
		if seen[label] {
			return fmt.Errorf("aqualogic: define view %s: duplicate output column %s (alias the columns uniquely)", name, label)
		}
		seen[label] = true
		cols[i] = Column{Name: label, Type: c.Type, Nullable: c.Nullable,
			Precision: c.Precision, Scale: c.Scale}
	}
	if _, err := p.metaSource().Lookup(catalog.TableRef{Table: name}); err == nil {
		return fmt.Errorf("aqualogic: define view %s: a table with that name already exists", name)
	}

	fn := catalog.NewRelationalImport(path, name, cols)
	p.App.AddDSFile(&DSFile{Path: path, Name: name, Functions: []*Function{fn}})
	// The App's metadata cache may hold a negative entry for the new name.
	// Only the App changed, so only it is invalidated: that moves the
	// stamp of every artifact depending on it, which the compile cache
	// retires on its next hit, while artifacts over other backends stay
	// cached.
	p.InvalidateSourceMetadata(p.App.Name)
	// Catalog contents changed: collected statistics may describe sources
	// the view now shadows or composes over.
	p.Engine.InvalidateSourceStats()

	resCols := res.Columns
	p.Engine.RegisterContext(fn.Namespace, fn.Name, func(ctx context.Context, args []Sequence) (Sequence, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("view %s takes no arguments", name)
		}
		// The view's rows are its XML-rows cursor's RECORDs, one per pull.
		cur := p.Engine.EvalStream(ctx, plan, nil, nil)
		defer cur.Close()
		var rows Sequence
		for {
			items, err := cur.Next()
			if err == io.EOF {
				return rows, nil
			}
			if err != nil {
				return nil, fmt.Errorf("view %s: %w", name, err)
			}
			rec, ok := items[0].(xdm.Node)
			if !ok || xdm.LocalName(rec) != "RECORD" {
				return nil, fmt.Errorf("view %s: unexpected result shape", name)
			}
			row := xdm.NewElement(name)
			for i, c := range resCols {
				text, n := xdm.Column(rec, c.ElementName)
				if n == 0 {
					continue // NULL stays absent
				}
				row.AddChild(xdm.NewTextElement(cols[i].Name, text))
			}
			rows = append(rows, row)
		}
	})
	return nil
}
