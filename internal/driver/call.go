package driver

import (
	"context"
	"database/sql/driver"
	"fmt"
	"strings"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/resultset"
	"repro/internal/sqlparser"
	"repro/internal/xdm"
)

// callStmt invokes a parameterized data service function — what the
// paper's Figure 2 surfaces as a SQL stored procedure. Both the bare and
// the JDBC-escape forms are accepted:
//
//	CALL getCustomerById(?)
//	{call getCustomerById(1003)}
type callStmt struct {
	conn     *conn
	meta     *catalog.TableMeta
	args     []callArg
	numInput int
}

// callArg is one argument: either a literal value or a parameter marker.
type callArg struct {
	value      xdm.Atomic // nil for parameter markers
	paramIndex int        // 1-based, 0 for literals
}

func newCallStmt(ctx context.Context, c *conn, query string) (driver.Stmt, error) {
	body := strings.TrimSpace(query)
	if strings.HasPrefix(body, "{") {
		body = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(body, "{"), "}"))
	}
	toks, err := sqlparser.Lex(body)
	if err != nil {
		return nil, err
	}
	// Expected shape: CALL name[.name…] ( arg, … )
	i := 0
	next := func() sqlparser.Token { t := toks[i]; i++; return t }
	t := next()
	if !strings.EqualFold(t.Text, "CALL") {
		return nil, fmt.Errorf("aqualogic: expected CALL, found %s", t)
	}
	var nameParts []string
	for {
		t = next()
		if t.Type != sqlparser.TokIdent && t.Type != sqlparser.TokQuotedIdent {
			return nil, fmt.Errorf("aqualogic: expected procedure name, found %s", t)
		}
		nameParts = append(nameParts, t.Text)
		if !toks[i].IsOp(".") {
			break
		}
		i++
	}
	s := &callStmt{conn: c}
	ref := tableRefFromName(strings.Join(nameParts, "."))
	meta, err := catalog.LookupContext(ctx, c.sess.Metadata(), ref)
	if err != nil {
		return nil, err
	}
	if meta.Function.IsTable() {
		return nil, fmt.Errorf("aqualogic: %s is a table, not a procedure; use SELECT", meta.Function.Name)
	}
	s.meta = meta

	if !next().IsOp("(") {
		return nil, fmt.Errorf("aqualogic: expected '(' after procedure name")
	}
	if toks[i].IsOp(")") {
		i++
	} else {
		for {
			t = next()
			arg := callArg{}
			switch t.Type {
			case sqlparser.TokParam:
				s.numInput++
				arg.paramIndex = s.numInput
			case sqlparser.TokInteger:
				v, err := xdm.ParseAtomic(t.Text, xdm.TypeInteger)
				if err != nil {
					return nil, err
				}
				arg.value = v
			case sqlparser.TokDecimal, sqlparser.TokFloat:
				v, err := xdm.ParseAtomic(t.Text, xdm.TypeDecimal)
				if err != nil {
					return nil, err
				}
				arg.value = v
			case sqlparser.TokString:
				arg.value = xdm.String(t.Text)
			default:
				return nil, fmt.Errorf("aqualogic: unsupported procedure argument %s", t)
			}
			s.args = append(s.args, arg)
			t = next()
			if t.IsOp(")") {
				break
			}
			if !t.IsOp(",") {
				return nil, fmt.Errorf("aqualogic: expected ',' or ')', found %s", t)
			}
		}
	}
	if toks[i].Type != sqlparser.TokEOF {
		return nil, fmt.Errorf("aqualogic: unexpected %s after CALL statement", toks[i])
	}
	if len(s.args) != len(meta.Function.Params) {
		return nil, fmt.Errorf("aqualogic: %s expects %d argument(s), got %d",
			meta.Function.Name, len(meta.Function.Params), len(s.args))
	}
	return s, nil
}

// Close implements driver.Stmt.
func (s *callStmt) Close() error { return nil }

// NumInput implements driver.Stmt.
func (s *callStmt) NumInput() int { return s.numInput }

// Exec implements driver.Stmt.
func (s *callStmt) Exec(args []driver.Value) (driver.Result, error) {
	return nil, fmt.Errorf("aqualogic: CALL statements return rows; use Query")
}

// Query implements driver.Stmt: the function is invoked through the
// session and its flat rows decode with the function's column schema.
func (s *callStmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.queryContext(context.Background(), plainArgs(args))
}

// QueryContext implements driver.StmtQueryContext for CALL statements.
func (s *callStmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return s.queryContext(ctx, namedArgs(args))
}

func (s *callStmt) queryContext(ctx context.Context, args []any) (dr driver.Rows, err error) {
	defer aqerr.Recover("call", &err)
	ctx, cancel := s.conn.withTimeout(ctx)
	defer cancel()
	f := s.meta.Function
	callArgs := make([]xdm.Sequence, len(s.args))
	for i, a := range s.args {
		if a.paramIndex > 0 {
			if a.paramIndex > len(args) {
				return nil, fmt.Errorf("aqualogic: missing value for parameter %d", a.paramIndex)
			}
			v, err := xdm.FromGo(args[a.paramIndex-1])
			if err != nil {
				return nil, aqerr.Errorf(aqerr.KindPermanent, "execute", "parameter %d: %v", a.paramIndex, err)
			}
			callArgs[i] = xdm.SequenceOf(v)
		} else {
			callArgs[i] = xdm.SequenceOf(a.value)
		}
		// Cast to the declared parameter type when possible.
		if want := f.Params[i].Type.Atomic(); !callArgs[i].Empty() && want != xdm.TypeUntyped {
			if cast, err := xdm.Cast(callArgs[i][0].(xdm.Atomic), want); err == nil {
				callArgs[i] = xdm.SequenceOf(cast)
			}
		}
	}

	out, err := s.conn.sess.Call(ctx, f.Namespace, f.Name, callArgs)
	if err != nil {
		return nil, aqerr.Wrap("call "+f.Name, err)
	}
	cols := make([]resultset.Column, len(f.Columns))
	for i, c := range f.Columns {
		cols[i] = resultset.Column{Label: c.Name, ElementName: c.Name, Type: c.Type, Nullable: c.Nullable}
	}
	// Stored-procedure results are materialized by construction: the
	// function's raw row elements are in hand, and each goes to the XML
	// decoder as a RECORD over the same children, all in one chunk.
	recs := make(xdm.Sequence, len(out))
	for i, it := range out {
		el, ok := it.(*xdm.Element)
		if !ok {
			return nil, fmt.Errorf("aqualogic: %s returned a non-element item", f.Name)
		}
		recs[i] = &xdm.Element{Name: xdm.QName{Local: "RECORD"}, Children: el.Children}
	}
	rows := resultset.NewStreaming(resultset.StreamXML(resultset.Chunk(recs), cols))
	if err := rows.Materialize(); err != nil {
		return nil, err
	}
	return &driverRows{rows: rows}, nil
}
