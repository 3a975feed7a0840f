package driver

import (
	"context"
	"database/sql/driver"
	"fmt"
	"io"
	"strings"

	"repro/internal/catalog"
)

// showStmt answers the metadata-browsing statements reporting tools issue
// before building queries — the DatabaseMetaData surface of a JDBC driver,
// expressed as SHOW pseudo-statements:
//
//	SHOW CATALOGS
//	SHOW SCHEMAS
//	SHOW TABLES
//	SHOW PROCEDURES
//	SHOW COLUMNS FROM <table>
type showStmt struct {
	conn *conn
	kind string
	arg  string
}

func newShowStmt(c *conn, query string) (driver.Stmt, error) {
	fields := strings.Fields(query)
	if len(fields) < 2 {
		return nil, fmt.Errorf("aqualogic: malformed SHOW statement")
	}
	kind := strings.ToUpper(fields[1])
	s := &showStmt{conn: c, kind: kind}
	switch kind {
	case "CATALOGS", "SCHEMAS", "TABLES", "PROCEDURES":
		if len(fields) != 2 {
			return nil, fmt.Errorf("aqualogic: SHOW %s takes no arguments", kind)
		}
	case "COLUMNS":
		if len(fields) != 4 || !strings.EqualFold(fields[2], "FROM") {
			return nil, fmt.Errorf("aqualogic: usage: SHOW COLUMNS FROM <table>")
		}
		s.arg = fields[3]
	default:
		return nil, fmt.Errorf("aqualogic: unknown SHOW statement %q", fields[1])
	}
	return s, nil
}

// Close implements driver.Stmt.
func (s *showStmt) Close() error { return nil }

// NumInput implements driver.Stmt.
func (s *showStmt) NumInput() int { return 0 }

// Exec implements driver.Stmt.
func (s *showStmt) Exec(args []driver.Value) (driver.Result, error) {
	return nil, fmt.Errorf("aqualogic: SHOW statements are queries")
}

// Query implements driver.Stmt.
func (s *showStmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), nil)
}

// QueryContext implements driver.StmtQueryContext: SHOW COLUMNS' table
// lookup observes the caller's deadline. Each table and procedure is
// listed under the catalog that owns it: the application, or in a
// federation the source it was registered from.
func (s *showStmt) QueryContext(ctx context.Context, _ []driver.NamedValue) (driver.Rows, error) {
	ctx, cancel := s.conn.withTimeout(ctx)
	defer cancel()
	meta := s.conn.sess.Metadata()
	switch s.kind {
	case "CATALOGS":
		tables, err := meta.Tables()
		if err != nil {
			return nil, err
		}
		procs, err := meta.Procedures()
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		out := &staticRows{cols: []string{"TABLE_CAT"}}
		for _, list := range [][]*catalog.TableMeta{tables, procs} {
			for _, t := range list {
				if !seen[t.Source] {
					seen[t.Source] = true
					out.rows = append(out.rows, []driver.Value{t.Source})
				}
			}
		}
		return out, nil

	case "SCHEMAS":
		tables, err := meta.Tables()
		if err != nil {
			return nil, err
		}
		seen := map[[2]string]bool{}
		out := &staticRows{cols: []string{"TABLE_SCHEM", "TABLE_CATALOG"}}
		for _, t := range tables {
			if key := [2]string{t.Schema, t.Source}; !seen[key] {
				seen[key] = true
				out.rows = append(out.rows, []driver.Value{t.Schema, t.Source})
			}
		}
		return out, nil

	case "TABLES":
		tables, err := meta.Tables()
		if err != nil {
			return nil, err
		}
		out := &staticRows{cols: []string{"TABLE_CAT", "TABLE_SCHEM", "TABLE_NAME", "TABLE_TYPE"}}
		for _, t := range tables {
			out.rows = append(out.rows, []driver.Value{t.Source, t.Schema, t.Function.Name, "TABLE"})
		}
		return out, nil

	case "PROCEDURES":
		procs, err := meta.Procedures()
		if err != nil {
			return nil, err
		}
		out := &staticRows{cols: []string{"PROCEDURE_CAT", "PROCEDURE_SCHEM", "PROCEDURE_NAME", "NUM_PARAMS"}}
		for _, p := range procs {
			out.rows = append(out.rows, []driver.Value{
				p.Source, p.Schema, p.Function.Name, int64(len(p.Function.Params)),
			})
		}
		return out, nil

	case "COLUMNS":
		tm, err := catalog.LookupContext(ctx, meta, tableRefFromName(s.arg))
		if err != nil {
			return nil, err
		}
		out := &staticRows{cols: []string{"COLUMN_NAME", "TYPE_NAME", "IS_NULLABLE", "ORDINAL_POSITION"}}
		for i, c := range tm.Function.Columns {
			nullable := "NO"
			if c.Nullable {
				nullable = "YES"
			}
			out.rows = append(out.rows, []driver.Value{c.Name, c.Type.String(), nullable, int64(i + 1)})
		}
		return out, nil
	}
	return nil, fmt.Errorf("aqualogic: unknown SHOW statement %q", s.kind)
}

// tableRefFromName splits an optionally qualified table name.
func tableRefFromName(name string) catalog.TableRef {
	parts := strings.Split(name, ".")
	switch len(parts) {
	case 1:
		return catalog.TableRef{Table: parts[0]}
	case 2:
		return catalog.TableRef{Schema: parts[0], Table: parts[1]}
	default:
		return catalog.TableRef{
			Catalog: parts[0],
			Schema:  strings.Join(parts[1:len(parts)-1], "."),
			Table:   parts[len(parts)-1],
		}
	}
}

// staticRows is a fixed in-memory driver.Rows.
type staticRows struct {
	cols []string
	rows [][]driver.Value
	pos  int
}

// Columns implements driver.Rows.
func (r *staticRows) Columns() []string { return r.cols }

// Close implements driver.Rows.
func (r *staticRows) Close() error { return nil }

// Next implements driver.Rows.
func (r *staticRows) Next(dest []driver.Value) error {
	if r.pos >= len(r.rows) {
		return io.EOF
	}
	copy(dest, r.rows[r.pos])
	r.pos++
	return nil
}

// newExplainStmt renders the statement's compiled artifact through the
// session, which compiles only when no artifact exists — exactly like
// Prepare — so EXPLAIN of a statement already compiled anywhere on the
// platform performs no translation at all.
func newExplainStmt(ctx context.Context, c *conn, sql string) (driver.Stmt, error) {
	lines, err := c.sess.Explain(ctx, c.dialect, sql, c.mode)
	if err != nil {
		return nil, err
	}
	out := &staticRows{cols: []string{"PLAN"}}
	for _, line := range lines {
		out.rows = append(out.rows, []driver.Value{line})
	}
	return &explainStmt{rows: out}, nil
}

type explainStmt struct {
	rows *staticRows
}

// Close implements driver.Stmt.
func (s *explainStmt) Close() error { return nil }

// NumInput implements driver.Stmt. EXPLAIN renders parameter markers
// without binding them.
func (s *explainStmt) NumInput() int { return 0 }

// Exec implements driver.Stmt.
func (s *explainStmt) Exec(args []driver.Value) (driver.Result, error) {
	return nil, fmt.Errorf("aqualogic: EXPLAIN is a query")
}

// Query implements driver.Stmt.
func (s *explainStmt) Query(args []driver.Value) (driver.Rows, error) {
	cp := *s.rows
	cp.pos = 0
	return &cp, nil
}

// newCreateViewStmt parses CREATE VIEW [schema.]name AS <select> and
// registers a logical data service through the session — the
// SQL-tool-facing way to author the paper's logical layer.
func newCreateViewStmt(c *conn, stmtText string) (driver.Stmt, error) {
	rest := strings.TrimSpace(stmtText[len("CREATE VIEW"):])
	// The view name runs to the AS keyword (case-insensitive, own token).
	fields := strings.Fields(rest)
	if len(fields) < 3 || !strings.EqualFold(fields[1], "AS") {
		return nil, fmt.Errorf("aqualogic: usage: CREATE VIEW <name> AS SELECT …")
	}
	qualified := fields[0]
	after := strings.TrimSpace(rest[len(qualified):])
	if len(after) < 3 || !strings.EqualFold(after[:2], "AS") {
		return nil, fmt.Errorf("aqualogic: usage: CREATE VIEW <name> AS SELECT …")
	}
	body := strings.TrimSpace(after[2:])

	path, name := "Views", qualified
	if i := strings.LastIndexByte(qualified, '.'); i >= 0 {
		path, name = qualified[:i], qualified[i+1:]
	}
	return &createViewStmt{conn: c, path: path, name: strings.ToUpper(name), body: body}, nil
}

type createViewStmt struct {
	conn             *conn
	path, name, body string
}

// Close implements driver.Stmt.
func (s *createViewStmt) Close() error { return nil }

// NumInput implements driver.Stmt.
func (s *createViewStmt) NumInput() int { return 0 }

// Exec implements driver.Stmt: view creation is DDL, executed not queried.
// The session retires the metadata and compiled artifacts the new view
// makes stale, for every connection at once.
func (s *createViewStmt) Exec(args []driver.Value) (driver.Result, error) {
	if err := s.conn.sess.DefineView(s.path, s.name, s.body); err != nil {
		return nil, err
	}
	return driver.RowsAffected(0), nil
}

// Query implements driver.Stmt.
func (s *createViewStmt) Query(args []driver.Value) (driver.Rows, error) {
	if _, err := s.Exec(args); err != nil {
		return nil, err
	}
	return &staticRows{cols: []string{"CREATED"}, rows: [][]driver.Value{{s.name}}}, nil
}
