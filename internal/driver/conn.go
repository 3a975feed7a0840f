package driver

import (
	"context"
	"database/sql/driver"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/obsv"
	"repro/internal/qcache"
	"repro/internal/qfront"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// conn is one connection: a translator with its own metadata cache (the
// paper's per-connection fetch-and-cache behavior) plus the execution
// engine and the per-connection metrics behind Stats(). Compiled-query
// artifacts are not per-connection: they live in the server's shared
// compile cache, so translation work done on any connection is reused by
// all of them.
type conn struct {
	srv        *Server
	engine     *xqeval.Engine
	translator *translator.Translator
	cache      *catalog.Cache
	mode       translator.ResultMode
	frontend   qfront.Frontend
	obs        *obsv.Metrics
	closed     bool
}

func newConn(srv *Server, mode string, fe qfront.Frontend) *conn {
	cache := catalog.NewCache(srv.metaSource())
	tr := translator.New(cache)
	tr.Options.DefaultCatalog = srv.App.Name
	if mode == "xml" {
		tr.Options.Mode = translator.ModeXML
	} else {
		tr.Options.Mode = translator.ModeText
	}
	return &conn{srv: srv, engine: srv.Engine, translator: tr, cache: cache,
		mode: tr.Options.Mode, frontend: fe, obs: &obsv.Metrics{}}
}

// compile resolves query through the server's shared compile cache,
// translating + checking + planning only on a miss (single-flight across
// racing connections). hit reports artifact reuse; only fresh compiles
// count toward the connection's QueriesTranslated.
func (c *conn) compile(ctx context.Context, query string) (cq *qcache.CompiledQuery, hit bool, err error) {
	cq, hit, err = c.srv.compileCache().Get(ctx, c.frontend, query, c.mode, func(ctx context.Context, text string) (*qcache.CompiledQuery, error) {
		tr := obsv.NewTrace(text)
		tr.Hook = c.observeStage
		return qcache.Compile(ctx, c.translator, c.engine, c.frontend, text, tr)
	})
	if err != nil {
		c.obs.TranslateErrors.Inc()
		return nil, false, err
	}
	if !hit {
		c.obs.QueriesTranslated.Inc()
	}
	return cq, hit, nil
}

// Prepare implements driver.Conn: statements translate once here and
// execute many times with different parameters.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext implements driver.ConnPrepareContext: translation-time
// metadata fetches observe the caller's deadline, and a panic anywhere in
// the translation pipeline surfaces as a typed SQL error instead of
// killing the embedding process.
func (c *conn) PrepareContext(ctx context.Context, query string) (st driver.Stmt, err error) {
	defer aqerr.Recover("prepare", &err)
	if c.closed {
		return nil, driver.ErrBadConn
	}
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	trimmed := strings.TrimSpace(query)
	upper := strings.ToUpper(trimmed)
	switch {
	case strings.HasPrefix(upper, "SHOW "):
		return newShowStmt(c, trimmed)
	case strings.HasPrefix(upper, "CALL ") || strings.HasPrefix(upper, "{CALL"):
		return newCallStmt(ctx, c, trimmed)
	case strings.HasPrefix(upper, "EXPLAIN "):
		return newExplainStmt(ctx, c, strings.TrimSpace(trimmed[len("EXPLAIN"):]))
	case strings.HasPrefix(upper, "CREATE VIEW "):
		return newCreateViewStmt(c, trimmed)
	}
	// Compile once through the server's shared cache: translate, statically
	// check, and plan the generated AST directly (no serialize→reparse).
	// The artifact is immutable, so one prepared statement can execute it
	// concurrently, and a repeat of the same statement — on this or any
	// other connection — reuses it without compiling.
	cq, _, err := c.compile(ctx, query)
	if err != nil {
		return nil, aqerr.Wrap("prepare", err)
	}
	return &stmt{conn: c, cq: cq}, nil
}

// withTimeout applies the server's QueryTimeout to contexts that carry no
// deadline of their own — how the non-context Query/Exec entry points
// (which reach here with context.Background()) still get bounded.
func (c *conn) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.srv.QueryTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			return context.WithTimeout(ctx, c.srv.QueryTimeout)
		}
	}
	return ctx, func() {}
}

// Close implements driver.Conn.
func (c *conn) Close() error {
	c.closed = true
	return nil
}

// Begin implements driver.Conn. The platform is read-only (XQuery 1.0 has
// no updates), so transactions are refused.
func (c *conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("aqualogic: transactions are not supported (data services are read-only)")
}

// stmt is a prepared SELECT holding its compiled-query artifact.
type stmt struct {
	conn *conn
	cq   *qcache.CompiledQuery
}

// Close implements driver.Stmt.
func (s *stmt) Close() error { return nil }

// NumInput implements driver.Stmt.
func (s *stmt) NumInput() int { return s.cq.Res.ParamCount }

// Exec implements driver.Stmt; the driver is read-only.
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return nil, fmt.Errorf("aqualogic: only SELECT statements are supported")
}

// Query implements driver.Stmt.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.queryContext(context.Background(), args)
}

// QueryContext implements driver.StmtQueryContext: the evaluation observes
// cancellation and deadlines at tuple boundaries.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	plain := make([]driver.Value, len(args))
	for i, a := range args {
		plain[i] = a.Value
	}
	return s.queryContext(ctx, plain)
}

func (s *stmt) queryContext(ctx context.Context, args []driver.Value) (dr driver.Rows, err error) {
	// A panic below (engine bug, malformed injected data) becomes a typed
	// internal error at this boundary instead of unwinding into database/sql.
	defer aqerr.Recover("query", &err)
	ctx, cancel := s.conn.withTimeout(ctx)
	// The evaluation outlives this call: rows stream out of a still-running
	// query, so the context's cancel transfers to the returned driver.Rows
	// (released by its Close). Cancel locally only on the error paths.
	defer func() {
		if err != nil {
			cancel()
		}
	}()
	ext := make(map[string]xdm.Sequence, len(args))
	for i, a := range args {
		v, err := toAtomic(a)
		if err != nil {
			return nil, fmt.Errorf("aqualogic: parameter %d: %v", i+1, err)
		}
		ext[fmt.Sprintf("p%d", i+1)] = xdm.SequenceOf(v)
	}
	// The trace is named by the source SQL, not the serialized XQuery: the
	// compiled path never needs the textual form to execute.
	tr := obsv.NewTrace(s.cq.SQL)
	tr.Hook = s.conn.observeStage
	cur := s.conn.engine.EvalStream(ctx, s.cq.Plan, ext, tr)
	// Priming pulls the first chunk, so errors raised before any row exists
	// (unbound sources, bad parameters, source faults at open) surface here
	// synchronously, as they did on the materialized path.
	if err := cur.Prime(); err != nil {
		cur.Close()
		return nil, aqerr.Wrap("query", err)
	}
	s.conn.obs.QueriesExecuted.Inc()
	var rc resultset.RowCursor
	if s.cq.Res.Mode == translator.ModeText {
		rc = resultset.StreamText(cur, s.cq.Columns)
	} else {
		rc = resultset.StreamXML(cur, s.cq.Columns)
	}
	// Decoding now interleaves with consumption, so the decode span brackets
	// the cursor's whole delivery window and closes with the row count.
	return &driverRows{cur: rc, conn: s.conn, cancel: cancel, sp: tr.StartStage(obsv.StageDecode)}, nil
}

// toAtomic converts a database/sql parameter to an atomic value.
func toAtomic(v driver.Value) (xdm.Atomic, error) {
	switch v := v.(type) {
	case int64:
		return xdm.Integer(v), nil
	case float64:
		return xdm.Double(v), nil
	case bool:
		return xdm.Boolean(v), nil
	case string:
		return xdm.String(v), nil
	case []byte:
		return xdm.String(string(v)), nil
	case time.Time:
		return xdm.DateTime{T: v}, nil
	case nil:
		return nil, fmt.Errorf("NULL parameters are not supported (comparisons with NULL are never true in SQL)")
	default:
		return nil, fmt.Errorf("unsupported parameter type %T", v)
	}
}

// driverRows adapts a pull row cursor to driver.Rows. Rows decode one at a
// time as database/sql's Rows.Next pulls them; Close terminates a
// still-running evaluation early by cancelling its context.
type driverRows struct {
	cur    resultset.RowCursor
	conn   *conn              // nil for ancillary statements (CALL)
	cancel context.CancelFunc // nil when no live evaluation is attached
	sp     *obsv.Span         // decode span, closed with the delivered row count
	n      int64              // rows delivered
	closed bool
}

// Columns implements driver.Rows.
func (r *driverRows) Columns() []string {
	cols := r.cur.Columns()
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Label
	}
	return out
}

// Close implements driver.Rows. It is idempotent and releases everything
// exactly once: the cursor (dropping buffered rows), then the evaluation
// context, so a result set abandoned mid-stream cancels the query instead
// of evaluating tuples nobody will read.
func (r *driverRows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.cur.Close()
	if r.cancel != nil {
		r.cancel()
	}
	if r.sp != nil {
		r.sp.SetOutput(int(r.n))
		r.sp.End()
	}
	if r.conn != nil {
		r.conn.obs.RowsStreamed.Add(r.n)
	}
	return err
}

// Next implements driver.Rows: one pull on the cursor per row. Errors that
// strike mid-stream (source faults, cancellation) surface here as typed
// query errors through sql.Rows.Err.
func (r *driverRows) Next(dest []driver.Value) error {
	if r.closed {
		return io.EOF
	}
	row, err := r.cur.Next()
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return aqerr.Wrap("query", err)
	}
	r.n++
	for i := range dest {
		if i >= len(row) {
			return fmt.Errorf("aqualogic: column index %d out of range (0..%d)", i, len(row)-1)
		}
		dest[i] = fromAtomic(row[i])
	}
	return nil
}

// ColumnTypeDatabaseTypeName implements driver.RowsColumnTypeDatabaseTypeName:
// rows.ColumnTypes() reports the SQL type of each output column.
func (r *driverRows) ColumnTypeDatabaseTypeName(index int) string {
	return r.cur.Columns()[index].Type.String()
}

// ColumnTypeNullable implements driver.RowsColumnTypeNullable.
func (r *driverRows) ColumnTypeNullable(index int) (nullable, ok bool) {
	return r.cur.Columns()[index].Nullable, true
}

// ColumnTypePrecisionScale implements driver.RowsColumnTypePrecisionScale
// for columns with declared facets (DECIMAL(p,s), VARCHAR(n)).
func (r *driverRows) ColumnTypePrecisionScale(index int) (precision, scale int64, ok bool) {
	c := r.cur.Columns()[index]
	if c.Precision == 0 && c.Scale == 0 {
		return 0, 0, false
	}
	return int64(c.Precision), int64(c.Scale), true
}

// fromAtomic converts an atomic value to a driver.Value.
func fromAtomic(v xdm.Atomic) driver.Value {
	switch v := v.(type) {
	case nil:
		return nil
	case xdm.Integer:
		return int64(v)
	case xdm.Decimal:
		return float64(v)
	case xdm.Double:
		return float64(v)
	case xdm.Boolean:
		return bool(v)
	case xdm.Date:
		return v.T
	case xdm.Time:
		return v.T
	case xdm.DateTime:
		return v.T
	default:
		return v.Lexical()
	}
}
