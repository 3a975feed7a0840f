package driver

import (
	"context"
	"database/sql/driver"
	"fmt"
	"io"
	"strings"

	"repro/internal/aqerr"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/xdm"
)

// conn is one connection: a session plus the result mode its DSN
// selected. Everything a statement compiles or caches lives in the
// session, so connections share it all.
type conn struct {
	sess   Session
	mode   translator.ResultMode
	closed bool
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
	// Compile once through the session's shared cache. The artifact is
	// immutable, so one prepared statement can execute it concurrently, and
	// a repeat of the same statement — on this or any other connection, or
	// the facade — reuses it without compiling.
	p, err := c.sess.Prepare(ctx, query, c.mode)
	if err != nil {
		return nil, aqerr.Wrap("prepare", err)
	}
	return &stmt{conn: c, p: p}, nil
}

// withTimeout applies the session's QueryTimeout to contexts that carry no
// deadline of their own — how the non-context Query/Exec entry points
// (which reach here with context.Background()) still get bounded.
func (c *conn) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if d := c.sess.QueryTimeout(); d > 0 {
		if _, ok := ctx.Deadline(); !ok {
			return context.WithTimeout(ctx, d)
		}
	}
	return ctx, func() {}
}

// Close implements driver.Conn. An aql:// connection ends its wire
// session, releasing everything the server holds for it.
func (c *conn) Close() error {
	c.closed = true
	if r, ok := c.sess.(remoteSession); ok {
		return r.c.Close()
	}
	return nil
}

// Begin implements driver.Conn. The platform is read-only (XQuery 1.0 has
// no updates), so transactions are refused.
func (c *conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("aqualogic: transactions are not supported (data services are read-only)")
}

// stmt is a prepared SELECT.
type stmt struct {
	conn *conn
	p    Prepared
}

// Close implements driver.Stmt.
func (s *stmt) Close() error { return nil }

// NumInput implements driver.Stmt.
func (s *stmt) NumInput() int { return s.p.ParamCount() }

// Exec implements driver.Stmt; the driver is read-only.
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return nil, fmt.Errorf("aqualogic: only SELECT statements are supported")
}

// Query implements driver.Stmt.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.queryContext(context.Background(), plainArgs(args))
}

// QueryContext implements driver.StmtQueryContext: the evaluation observes
// cancellation and deadlines at tuple boundaries.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return s.queryContext(ctx, namedArgs(args))
}

func (s *stmt) queryContext(ctx context.Context, args []any) (dr driver.Rows, err error) {
	// A panic below (engine bug, malformed injected data) becomes a typed
	// internal error at this boundary instead of unwinding into database/sql.
	defer aqerr.Recover("query", &err)
	ctx, cancel := s.conn.withTimeout(ctx)
	// The evaluation outlives this call: rows stream out of a still-running
	// query, so the context's cancel transfers to the returned driver.Rows
	// (released by its Close).
	rows, err := s.p.Execute(ctx, args...)
	if err != nil {
		cancel()
		return nil, err
	}
	return &driverRows{rows: rows, cancel: cancel}, nil
}

// plainArgs and namedArgs hand database/sql's parameter values on as the
// session's positional arguments.
func plainArgs(args []driver.Value) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a
	}
	return out
}

func namedArgs(args []driver.NamedValue) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a.Value
	}
	return out
}

// driverRows adapts a result set to driver.Rows. Rows decode one at a time
// as database/sql's Rows.Next pulls them; Close terminates a still-running
// evaluation early by cancelling its context.
type driverRows struct {
	rows   *resultset.Rows
	cancel context.CancelFunc // nil when no live evaluation is attached
}

// Columns implements driver.Rows.
func (r *driverRows) Columns() []string {
	cols := r.rows.Columns()
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Label
	}
	return out
}

// Close implements driver.Rows. It is idempotent: the result set drops its
// buffered rows and closes its cursor, then the evaluation context is
// released, so a result set abandoned mid-stream cancels the query instead
// of evaluating tuples nobody will read.
func (r *driverRows) Close() error {
	r.rows.Close()
	if r.cancel != nil {
		r.cancel()
	}
	return nil
}

// Next implements driver.Rows: one pull on the result set per row. Errors
// that strike mid-stream (source faults, cancellation) surface here as
// typed query errors through sql.Rows.Err.
func (r *driverRows) Next(dest []driver.Value) error {
	if !r.rows.Next() {
		if err := r.rows.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	for i := range dest {
		v, err := r.rows.Value(i)
		if err != nil {
			return err
		}
		dest[i] = fromAtomic(v)
	}
	return nil
}

// ColumnTypeDatabaseTypeName implements driver.RowsColumnTypeDatabaseTypeName:
// rows.ColumnTypes() reports the SQL type of each output column.
func (r *driverRows) ColumnTypeDatabaseTypeName(index int) string {
	return r.rows.Columns()[index].Type.String()
}

// ColumnTypeNullable implements driver.RowsColumnTypeNullable.
func (r *driverRows) ColumnTypeNullable(index int) (nullable, ok bool) {
	return r.rows.Columns()[index].Nullable, true
}

// ColumnTypePrecisionScale implements driver.RowsColumnTypePrecisionScale
// for columns with declared facets (DECIMAL(p,s), VARCHAR(n)).
func (r *driverRows) ColumnTypePrecisionScale(index int) (precision, scale int64, ok bool) {
	c := r.rows.Columns()[index]
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
