// Differential conformance net for the network front end: the wire path —
// aqlserve's server over the facade, spoken to through the remote client —
// must be observationally identical to the in-process platform. Every
// statement in the compiled corpus, in both result modes, must deliver
// byte-identical rows through a loopback server, and every failing
// statement must surface the same typed-error kind remotely as locally.
// The session-state machine (reaping, double close, fetch past EOF,
// admission rejection, prepared statements across CREATE VIEW) is pinned
// at the wire level, request by request.
package aqualogic

import (
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/faultnet"
	"repro/internal/remoteclient"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// The facade must keep satisfying the server's backend surface.
var _ server.Backend = (*Platform)(nil)

// newLoopback builds a demo platform, a server over it, and a loopback
// client — the standard harness for wire conformance tests.
func newLoopback(t *testing.T, cfg server.Config) (*Platform, *server.Server, *remoteclient.Client) {
	t.Helper()
	p := Demo()
	srv := server.New(p, cfg)
	c, err := remoteclient.Loopback(srv.Handler())
	if err != nil {
		srv.Close()
		t.Fatalf("loopback handshake: %v", err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		srv.Close()
	})
	return p, srv, c
}

// errKindName classifies an error the way both sides of the wire must
// agree on: the QueryError kind, or "unknown" for untyped errors (which
// travel as kind "unknown" and come back as KindUnknown QueryErrors).
func errKindName(err error) string {
	var qe *aqerr.QueryError
	if errors.As(err, &qe) {
		return qe.Kind.String()
	}
	return aqerr.KindUnknown.String()
}

// drainClose marshals a streaming result and releases its cursor.
func drainClose(r *Rows) (string, error) {
	s, err := marshalStreamed(r)
	r.Close()
	return s, err
}

// TestServedMatchesInProcess is the differential conformance net: the
// full corpus, both result modes, served over the wire (with a small
// fetch chunk so every statement crosses multiple fetches) against the
// in-process platform. Rows must match byte for byte; failing statements
// must fail with the same typed-error kind on both paths.
func TestServedMatchesInProcess(t *testing.T) {
	p, _, c := newLoopback(t, server.Config{FetchRows: 3, SessionIdleTimeout: time.Minute})
	for _, mode := range []ResultMode{ModeXML, ModeText} {
		for _, sql := range compiledCorpus() {
			args := chaosArgs(strings.Count(sql, "?"))
			local, err := p.QueryStreamMode(context.Background(), mode, sql, args...)
			if err != nil {
				t.Fatalf("mode %v: %q: in-process: %v", mode, sql, err)
			}
			want := marshalRows(local)
			remote, err := c.Query(context.Background(), mode, sql, args...)
			if err != nil {
				t.Fatalf("mode %v: %q: served: %v", mode, sql, err)
			}
			got, err := drainClose(remote)
			if err != nil {
				t.Fatalf("mode %v: %q: served iteration: %v", mode, sql, err)
			}
			if got != want {
				t.Fatalf("mode %v: %q: served rows diverged from in-process\ngot:  %s\nwant: %s",
					mode, sql, got, want)
			}
		}
	}

	// Failing statements: the typed-error kind must survive the wire.
	for _, sql := range failingCorpus() {
		_, lerr := p.QueryStreamMode(context.Background(), ModeText, sql)
		_, rerr := c.Query(context.Background(), ModeText, sql)
		if lerr == nil || rerr == nil {
			t.Fatalf("%q: expected both paths to fail (local=%v remote=%v)", sql, lerr, rerr)
		}
		if lk, rk := errKindName(lerr), errKindName(rerr); lk != rk {
			t.Fatalf("%q: error kind diverged: in-process %s, served %s (%v vs %v)", sql, lk, rk, lerr, rerr)
		}
	}
}

// failingCorpus is statements every surface must refuse with the same
// typed-error kind.
func failingCorpus() []string {
	return []string{
		"SELECT NOPE FROM NO_SUCH_TABLE",
		"SELECT FROM WHERE",
		"SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = ? AND CITY = ? AND STATUS = ?",
		"SELECT CUSTOMERID FROM",
	}
}

// TestServeCallerMistakesArePermanent: a statement the caller got wrong —
// bad syntax, an unknown table or column, too few or too many parameters
// — is a typed permanent error in process, through the wire client, and
// in the raw served response (kind "permanent", HTTP 400), never an
// untyped one. An unknown dialect is checked in process only, against the
// QueryDialect shim: the wire can no longer name one.
func TestServeCallerMistakesArePermanent(t *testing.T) {
	p, srv, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	h := srv.Handler()
	session := wireSession(t, h)
	want := aqerr.KindPermanent.String()
	for _, tc := range []struct {
		name    string
		dialect Dialect
		sql     string
		args    []any
	}{
		{"syntax", DialectSQL, "SELEC CUSTOMERID FROM CUSTOMERS", nil},
		{"unknown table", DialectSQL, "SELECT NOPE FROM NO_SUCH_TABLE", nil},
		{"unknown column", DialectSQL, "SELECT NOPE FROM CUSTOMERS", nil},
		{"unknown dialect", "cobol", "SELECT CUSTOMERID FROM CUSTOMERS", nil},
		{"too few parameters", DialectSQL, "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = ?", nil},
		{"too many parameters", DialectSQL, "SELECT CUSTOMERID FROM CUSTOMERS", []any{1000}},
	} {
		_, lerr := p.QueryDialect(context.Background(), tc.dialect, ModeText, tc.sql, tc.args...)
		if k := errKindName(lerr); lerr == nil || k != want {
			t.Errorf("%s: in process: kind %s (%v), want %s", tc.name, k, lerr, want)
		}
		if tc.dialect != DialectSQL {
			continue
		}
		_, rerr := c.Query(context.Background(), ModeText, tc.sql, tc.args...)
		if k := errKindName(rerr); rerr == nil || k != want {
			t.Errorf("%s: served: kind %s (%v), want %s", tc.name, k, rerr, want)
		}
		req := wire.ExecuteRequest{Session: session, SQL: tc.sql}
		for _, a := range tc.args {
			v, err := ToAtomic(a)
			if err != nil {
				t.Fatal(err)
			}
			req.Args = append(req.Args, &wire.Atom{T: int(v.Type()), V: v.Lexical()})
		}
		code, body := postRaw(t, h, wire.PathExecute, req)
		var er wire.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == nil || code != http.StatusBadRequest || er.Error.Kind != want {
			t.Errorf("%s: raw execute: HTTP %d %s, want HTTP 400 kind %s", tc.name, code, body, want)
		}
	}
}

// serveTCP puts p behind a server on a real TCP listener and returns the
// server and the aql:// DSN database/sql opens it by.
func serveTCP(t *testing.T, p *Platform) (*server.Server, string) {
	t.Helper()
	srv := server.New(p, server.Config{SessionIdleTimeout: time.Minute})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, "aql://" + hs.Listener.Addr().String()
}

// TestDriverMatchesFacadeOnCorpus is the database/sql differential: the
// full corpus, both result modes, through mode-selecting DSNs against the
// facade, over both transports — the registered name in process and an
// aql:// address over real TCP. Scanned values must match row for row,
// and failing statements must fail with the same typed-error kind.
func TestDriverMatchesFacadeOnCorpus(t *testing.T) {
	p := Demo()
	p.RegisterDriver("driver-differential")
	_, remote := serveTCP(t, p)
	for _, dsn := range []string{"driver-differential", remote} {
		for _, mode := range []ResultMode{ModeXML, ModeText} {
			driverMatchesFacade(t, p, dsn+"?mode="+wire.ModeName(mode), mode)
		}
	}
}

// driverMatchesFacade runs the differential on one DSN.
func driverMatchesFacade(t *testing.T, p *Platform, dsn string, mode ResultMode) {
	db := openSQL(t, dsn)
	for _, q := range compiledCorpus() {
		args := chaosArgs(strings.Count(q, "?"))
		local, err := p.QueryStreamMode(context.Background(), mode, q, args...)
		if err != nil {
			t.Fatalf("%s: %q: facade: %v", dsn, q, err)
		}
		want := facadeValues(t, local)
		rows, err := db.Query(q, args...)
		if err != nil {
			t.Fatalf("%s: %q: database/sql: %v", dsn, q, err)
		}
		got := scanValues(t, rows)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %q: database/sql diverged from the facade\ngot:  %v\nwant: %v", dsn, q, got, want)
		}
	}
	for _, q := range failingCorpus() {
		_, lerr := p.QueryStreamMode(context.Background(), mode, q)
		_, rerr := db.Query(q)
		if lerr == nil || rerr == nil {
			t.Fatalf("%s: %q: expected both paths to fail (facade=%v database/sql=%v)", dsn, q, lerr, rerr)
		}
		if lk, rk := errKindName(lerr), errKindName(rerr); lk != rk {
			t.Fatalf("%s: %q: error kind diverged: facade %s, database/sql %s (%v vs %v)", dsn, q, lk, rk, lerr, rerr)
		}
	}
}

// facadeValues reads a facade result as database/sql would hand it out,
// one formatted row each.
func facadeValues(t *testing.T, r *Rows) []string {
	t.Helper()
	var out []string
	for r.Next() {
		row := make([]any, len(r.Columns()))
		for i := range row {
			v, err := r.Value(i)
			if err != nil {
				t.Fatal(err)
			}
			row[i] = sqlValue(v)
		}
		out = append(out, fmt.Sprintf("%#v", row))
	}
	if err := r.Err(); err != nil {
		t.Fatalf("facade iteration: %v", err)
	}
	return out
}

// scanValues drains and closes a database/sql result, one formatted row
// each.
func scanValues(t *testing.T, rows *sql.Rows) []string {
	t.Helper()
	defer rows.Close()
	cols, _ := rows.Columns()
	var out []string
	for rows.Next() {
		row := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range row {
			ptrs[i] = &row[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%#v", row))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("database/sql iteration: %v", err)
	}
	return out
}

// TestDuplicateOutputNamesInTextMode: two output columns with one name — a
// repeated column, or a repeated alias — give the XML-mode answer in text
// mode too: in process, served, and through database/sql over both
// transports. The §4 wrapper reads each column by element name, so the
// names differ even where the labels do not.
func TestDuplicateOutputNamesInTextMode(t *testing.T) {
	p, _, c := newLoopback(t, server.Config{FetchRows: 7, SessionIdleTimeout: time.Minute})
	p.RegisterDriver("duplicate-names")
	_, remote := serveTCP(t, p)
	for _, q := range []string{
		"SELECT CUSTOMERID, CUSTOMERID FROM CUSTOMERS",
		"SELECT CUSTOMERID AS A, CUSTOMERNAME AS A FROM CUSTOMERS",
	} {
		xml, err := p.QueryStreamMode(context.Background(), ModeXML, q)
		if err != nil {
			t.Fatalf("%q: XML mode: %v", q, err)
		}
		want := marshalRows(xml)
		xml.Reset()
		wantValues := facadeValues(t, xml)
		if len(wantValues) != 50 {
			t.Fatalf("%q: XML mode returned %d rows, want 50", q, len(wantValues))
		}
		local, err := p.QueryStreamMode(context.Background(), ModeText, q)
		if err != nil {
			t.Fatalf("%q: text mode in process: %v", q, err)
		}
		if got := marshalRows(local); got != want {
			t.Fatalf("%q: text mode in process\ngot:  %s\nwant: %s", q, got, want)
		}
		served, err := c.Query(context.Background(), ModeText, q)
		if err != nil {
			t.Fatalf("%q: text mode served: %v", q, err)
		}
		if got, err := drainClose(served); err != nil || got != want {
			t.Fatalf("%q: text mode served: %v\ngot:  %s\nwant: %s", q, err, got, want)
		}
		for _, dsn := range []string{"duplicate-names", remote} {
			rows, err := openSQL(t, dsn+"?mode=text").Query(q)
			if err != nil {
				t.Fatalf("%s: %q: %v", dsn, q, err)
			}
			if got := scanValues(t, rows); !reflect.DeepEqual(got, wantValues) {
				t.Fatalf("%s: %q: text mode through database/sql\ngot:  %v\nwant: %v", dsn, q, got, wantValues)
			}
		}
	}
}

// sqlValue is the database/sql value the driver hands out for an atomic.
func sqlValue(v xdm.Atomic) any {
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
	}
	return v.Lexical()
}

// TestNullArgumentSameErrorEverywhere: a NULL argument is refused with the
// same typed permanent error by the facade, by database/sql over both
// transports and by the wire client.
func TestNullArgumentSameErrorEverywhere(t *testing.T) {
	p, _, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	p.RegisterDriver("null-argument")
	_, remote := serveTCP(t, p)
	const q = "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID = ?"
	_, facade := p.Query(q, nil)
	_, viaSQL := openSQL(t, "null-argument").Query(q, nil)
	_, viaAQL := openSQL(t, remote).Query(q, nil)
	_, served := c.Query(context.Background(), ModeText, q, nil)
	for surface, err := range map[string]error{
		"facade": facade, "database/sql": viaSQL, "database/sql over aql://": viaAQL, "served": served,
	} {
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) || qe.Kind != aqerr.KindPermanent {
			t.Fatalf("%s: %v, want a permanent QueryError", surface, err)
		}
		if err.Error() != served.Error() {
			t.Fatalf("%s: %q, served %q", surface, err, served)
		}
	}
}

// edgePlatform serves one table whose rows sit on the edges of the §4 text
// form — NULL in every nullable position, "", the NULL token, '<', '>',
// '&', carriage returns, an escaped carriage return as literal data,
// non-ASCII text — with, at K = 8, an INTEGER column holding "zz", which
// neither path can type.
func edgePlatform() *Platform {
	app := &catalog.Application{Name: "EdgeApp"}
	app.AddDSFile(&catalog.DSFile{Path: "Edge", Name: "EDGE", Functions: []*catalog.Function{
		catalog.NewRelationalImport("Edge", "EDGE", []catalog.Column{
			{Name: "K", Type: catalog.SQLInteger},
			{Name: "S", Type: catalog.SQLVarchar, Nullable: true, Precision: 32},
			{Name: "T", Type: catalog.SQLVarchar, Nullable: true, Precision: 32},
			{Name: "N", Type: catalog.SQLInteger, Nullable: true},
		}),
	}})
	row := func(cells ...string) *xdm.Element {
		r := xdm.NewElement("EDGE")
		for i := 0; i+1 < len(cells); i += 2 {
			r.AddChild(xdm.NewTextElement(cells[i], cells[i+1]))
		}
		return r
	}
	engine := xqeval.New()
	engine.RegisterRows("ld:Edge/EDGE", "EDGE", []*xdm.Element{
		row("K", "1", "S", "", "T", "&null;", "N", "1"),
		row("K", "2", "T", "<", "N", "2"),
		row("K", "3", "S", ">", "N", "3"),
		row("K", "4", "S", "&", "T", "\r"),
		row("K", "5", "S", "a\rb", "T", "&#xD;", "N", "5"),
		row("K", "6"),
		row("K", "7", "S", "café € <é> ü", "T", "&amp;#xD; &lt;", "N", "-7"),
		row("K", "8", "S", "untypeable", "N", "zz"),
		row("K", "9", "S", "after", "N", "9"),
	})
	return New(app, engine)
}

// TestServedEdgeDataMatchesInProcess extends the conformance net to the
// edge table: in both modes, ad hoc and prepared, at 1-, 3- and 256-row
// fetch chunks, the served path delivers the in-process rows — or, over
// the untypeable row, the same prefix and then the same error kind; in
// text mode, where the client types the rows, the very same error.
func TestServedEdgeDataMatchesInProcess(t *testing.T) {
	p := edgePlatform()
	stmts := []struct {
		sql   string
		args  []any
		fails bool
		holds string // a row the result must contain
	}{
		{"SELECT K, S, T, N FROM EDGE WHERE K <> 8", nil, false, "|5|a\rb|&#xD;|5\n"},
		{"SELECT K, S, T, N FROM EDGE", nil, true, "|7|café € <é> ü|&amp;#xD; &lt;|-7\n"},
		{"SELECT N, T, S FROM EDGE WHERE K > ?", []any{3}, true, "|NULL|\r|&\n"},
		{"SELECT S, N FROM EDGE WHERE K > ?", []any{8}, false, "|after|9\n"},
	}
	ctx := context.Background()
	for _, fetchRows := range []int{1, 3, 256} {
		srv := server.New(p, server.Config{FetchRows: fetchRows, SessionIdleTimeout: time.Minute})
		c, err := remoteclient.Loopback(srv.Handler())
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []ResultMode{ModeXML, ModeText} {
			for _, st := range stmts {
				local, err := p.QueryStreamMode(context.Background(), mode, st.sql, st.args...)
				if err != nil {
					t.Fatalf("%q: in-process: %v", st.sql, err)
				}
				want, werr := drainClose(local)
				if (werr != nil) != st.fails {
					t.Fatalf("mode %v: %q: in-process error %v, want failure %v", mode, st.sql, werr, st.fails)
				}
				if !strings.Contains(want, st.holds) {
					t.Fatalf("mode %v: %q: in-process rows %q lack %q", mode, st.sql, want, st.holds)
				}
				adhoc, err := c.Query(ctx, mode, st.sql, st.args...)
				if err != nil {
					t.Fatalf("%q: served: %v", st.sql, err)
				}
				prep, err := c.Prepare(ctx, st.sql, mode)
				if err != nil {
					t.Fatalf("%q: prepare: %v", st.sql, err)
				}
				prepared, err := prep.Execute(ctx, st.args...)
				if err != nil {
					t.Fatalf("%q: prepared execute: %v", st.sql, err)
				}
				for how, remote := range map[string]*Rows{"ad hoc": adhoc, "prepared": prepared} {
					got, gerr := drainClose(remote)
					where := fmt.Sprintf("fetch %d, mode %v, %s %q", fetchRows, mode, how, st.sql)
					if got != want {
						t.Fatalf("%s: served rows diverged\ngot:  %q\nwant: %q", where, got, want)
					}
					if (gerr != nil) != (werr != nil) || errKindName(gerr) != errKindName(werr) {
						t.Fatalf("%s: served error %v, in-process %v", where, gerr, werr)
					}
					if mode == ModeText && gerr != nil && gerr.Error() != werr.Error() {
						t.Fatalf("%s: served error %q, in-process %q", where, gerr, werr)
					}
				}
			}
		}
		_ = c.Close()
		srv.Close()
	}
}

// FuzzServeDifferential extends the conformance net to arbitrary accepted
// SQL: whatever the statement, a doubly-successful run must produce
// byte-identical rows served and in-process.
func FuzzServeDifferential(f *testing.F) {
	for _, s := range compiledCorpus() {
		f.Add(s)
	}
	p := Demo()
	srv := server.New(p, server.Config{FetchRows: 5, SessionIdleTimeout: time.Hour})
	defer srv.Close()
	c, err := remoteclient.Loopback(srv.Handler())
	if err != nil {
		f.Fatalf("loopback handshake: %v", err)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		for _, mode := range []ResultMode{ModeXML, ModeText} {
			cq, err := p.CompileContext(context.Background(), sql, mode)
			if err != nil || cq.Res.ParamCount > 2 {
				return
			}
			if strings.Contains(cq.XQuery(), "fn:current-") {
				return // nondeterministic between the two evaluations
			}
			args := chaosArgs(cq.Res.ParamCount)
			local, lerr := p.QueryStreamMode(context.Background(), mode, sql, args...)
			var want string
			if lerr == nil {
				want = marshalRows(local)
			}
			remote, rerr := c.Query(context.Background(), mode, sql, args...)
			var got string
			if rerr == nil {
				got, rerr = drainClose(remote)
			}
			if lerr != nil || rerr != nil {
				// Dynamic error timing is not part of the contract; value
				// divergence on double success is the bug.
				return
			}
			if got != want {
				t.Fatalf("mode %v: %q: served diverged from in-process\ngot:  %s\nwant: %s",
					mode, sql, got, want)
			}
		}
	})
}

// postWire performs one raw wire exchange against a handler — the
// request-by-request view the session-lifecycle tests need — and decodes
// the response with the wire reader. A non-OK response returns the
// decoded wire error.
func postWire(t *testing.T, h http.Handler, path string, in, out any) *wire.Error {
	t.Helper()
	code, body := postRaw(t, h, path, in)
	if code != http.StatusOK {
		var er wire.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == nil {
			t.Fatalf("%s: HTTP %d with undecodable error body %q", path, code, body)
		}
		return er.Error
	}
	if out != nil {
		if err := wire.ReadBody(body, out); err != nil {
			t.Fatalf("%s: decode response: %v", path, err)
		}
	}
	return nil
}

// wireSession opens a session with a raw handshake at the server's
// protocol version.
func wireSession(t *testing.T, h http.Handler) string {
	t.Helper()
	var hs wire.HandshakeResponse
	if we := postWire(t, h, wire.PathHandshake, wire.HandshakeRequest{Protocol: wire.ProtocolVersion}, &hs); we != nil {
		t.Fatalf("handshake: %v", we)
	}
	return hs.Session
}

// postRaw performs one raw wire exchange, returning the status and the
// response body as the server wrote it.
func postRaw(t *testing.T, h http.Handler, path string, in any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("%s: encode: %v", path, err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestServeRefusesMismatchedProtocol: a handshake naming any protocol
// version but the server's — including none, as clients that carried rows
// as typed atoms sent, 2, whose clients expect an empty execute, 3, whose
// clients read rows as a JSON array, and 4, whose clients may send a
// statement dialect — is refused with a typed permanent error naming both
// versions, and opens no session.
func TestServeRefusesMismatchedProtocol(t *testing.T) {
	srv := server.New(Demo(), server.Config{SessionIdleTimeout: time.Minute})
	defer srv.Close()
	h := srv.Handler()
	for _, v := range []int{0, 2, 3, 4, wire.ProtocolVersion + 1} {
		var hs wire.HandshakeResponse
		we := postWire(t, h, wire.PathHandshake, wire.HandshakeRequest{Client: "other", Protocol: v}, &hs)
		if we == nil {
			t.Fatalf("protocol %d: handshake accepted (session %q)", v, hs.Session)
		}
		if aqerr.ParseKind(we.Kind) != aqerr.KindPermanent ||
			!strings.Contains(we.Msg, fmt.Sprintf("protocol %d,", v)) ||
			!strings.Contains(we.Msg, fmt.Sprintf("speaks %d", wire.ProtocolVersion)) {
			t.Fatalf("protocol %d: refused with %+v, want a permanent error naming both versions", v, we)
		}
	}
	if st := srv.Stats(); st.SessionsOpened != 0 {
		t.Fatalf("refused handshakes opened %d sessions", st.SessionsOpened)
	}
}

// TestServeFetchRowsAreText pins a chunk's row form, here the chunk the
// execute response carries: each row is the §4 row text an in-process
// NextText reads — the evaluator's own text in text mode, the typed row
// encoded in XML mode — and the delimiters leave the server as single
// bytes, not six-byte JSON escapes.
func TestServeFetchRowsAreText(t *testing.T) {
	p, srv, _ := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	h := srv.Handler()
	session := wireSession(t, h)
	const sql = "SELECT CUSTOMERID, CUSTOMERNAME, CITY FROM CUSTOMERS WHERE CUSTOMERID < 1004"
	for _, mode := range []ResultMode{ModeText, ModeXML} {
		local, err := p.QueryStreamMode(context.Background(), mode, sql)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for row, ok := local.NextText(); ok; row, ok = local.NextText() {
			want = append(want, row)
		}
		if err := local.Err(); err != nil || len(want) != 4 {
			t.Fatalf("mode %v: in-process rows %q, err %v", mode, want, err)
		}
		code, body := postRaw(t, h, wire.PathExecute, wire.ExecuteRequest{Session: session, SQL: sql, Mode: wire.ModeName(mode)})
		if code != http.StatusOK || !bytes.Contains(body, []byte("<")) || bytes.Contains(body, []byte("\\u003c")) {
			t.Fatalf("mode %v: HTTP %d, body %s: want '<' as one byte", mode, code, body)
		}
		var ex wire.ExecuteResponse
		if err := wire.ReadBody(body, &ex); err != nil {
			t.Fatal(err)
		}
		if ex.Cursor != 0 || !ex.EOF || ex.Error != nil || !reflect.DeepEqual(ex.Rows, want) {
			t.Fatalf("mode %v: executed %+v, want rows %q, EOF and no cursor", mode, ex, want)
		}
	}
}

// TestServedExecuteResolvesNoText: a served prepared statement executes
// the artifact it holds, so 50 executions leave the compile cache's
// lookups (hits, misses and shared flights) where they were, and an
// ad-hoc execute resolves its text exactly once.
func TestServedExecuteResolvesNoText(t *testing.T) {
	p, _, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	ctx := context.Background()
	lookups := func() int64 {
		s := p.CompileStats()
		return s.Hits + s.Misses + s.Shared
	}
	st, err := c.Prepare(ctx, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?", ModeText)
	if err != nil {
		t.Fatal(err)
	}
	before := lookups()
	for i := 0; i < 50; i++ {
		rows, err := st.Execute(ctx, 1000+i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drainClose(rows); err != nil {
			t.Fatal(err)
		}
	}
	if got := lookups() - before; got != 0 {
		t.Fatalf("50 prepared executions made %d compile-cache lookups, want 0", got)
	}
	for i := 0; i < 3; i++ {
		before := lookups()
		rows, err := c.Query(ctx, ModeText, "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID = 1003")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drainClose(rows); err != nil {
			t.Fatal(err)
		}
		if got := lookups() - before; got != 1 {
			t.Fatalf("ad-hoc execute %d made %d compile-cache lookups, want 1", i, got)
		}
	}
}

// TestServedTextRowsPassRaw: a served text-mode result leaves as the
// evaluator's own row text, with no row decoded into atoms and encoded
// again on the way out. Serving a 2,500-row scan through execute and
// fetch — evaluation, chunking and the handler included — allocates well
// under once per row; a decode and re-encode costs several allocations
// per row.
func TestServedTextRowsPassRaw(t *testing.T) {
	app, _, engine := demo.Setup(demo.Sizes{Customers: 2500})
	srv := server.New(New(app, engine), server.Config{SessionIdleTimeout: time.Minute})
	defer srv.Close()
	h := srv.Handler()
	session := wireSession(t, h)
	const sql = "SELECT CUSTOMERID, CUSTOMERNAME, CITY FROM CUSTOMERS"
	drain := func() int {
		_, body := postRaw(t, h, wire.PathExecute, wire.ExecuteRequest{Session: session, SQL: sql})
		var ex wire.ExecuteResponse
		if err := wire.ReadBody(body, &ex); err != nil || ex.Error != nil {
			t.Fatalf("execute: %v %v", err, ex.Error)
		}
		n, eof := len(ex.Rows), ex.EOF
		for seq := int64(2); !eof; seq++ {
			_, body := postRaw(t, h, wire.PathFetch, wire.FetchRequest{Session: session, Cursor: ex.Cursor, Seq: seq})
			var fr wire.FetchResponse
			if err := wire.ReadBody(body, &fr); err != nil || fr.Error != nil {
				t.Fatalf("fetch %d: %v %v", seq, err, fr.Error)
			}
			n, eof = n+len(fr.Rows), fr.EOF
		}
		postRaw(t, h, wire.PathCloseCursor, wire.CloseCursorRequest{Session: session, Cursor: ex.Cursor})
		return n
	}
	drain() // compile once, outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := drain()
	runtime.ReadMemStats(&after)
	perRow := float64(after.Mallocs-before.Mallocs) / float64(n)
	t.Logf("%d rows, %.2f allocations per row", n, perRow)
	if n != 2500 || perRow > 1 {
		t.Fatalf("%d rows at %.2f allocations per row, want 2500 rows at ≤ 1 (are text rows decoded and re-encoded?)", n, perRow)
	}
}

// endlessString reads as the opening of a JSON request followed by an
// unterminated string of n bytes, produced without holding them.
type endlessString struct {
	head string
	n    int
}

func (r *endlessString) Read(p []byte) (int, error) {
	if r.head != "" {
		k := copy(p, r.head)
		r.head = r.head[k:]
		return k, nil
	}
	if r.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), r.n)
	for i := range p[:k] {
		p[i] = 'a'
	}
	r.n -= k
	return k, nil
}

// TestServeBoundsRequestBody: every verb refuses a request body past the
// server's bound with the typed resource-limit frame, and does so without
// buffering it — a 64 MB body may not grow the heap by anything like its
// size.
func TestServeBoundsRequestBody(t *testing.T) {
	srv := server.New(Demo(), server.Config{SessionIdleTimeout: time.Minute})
	defer srv.Close()
	h := srv.Handler()
	const huge = 64 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, path := range []string{wire.PathHandshake, wire.PathPrepare, wire.PathExecute, wire.PathFetch, wire.PathCreateView, wire.PathStats} {
		req := httptest.NewRequest(http.MethodPost, path, &endlessString{head: `{"sql":"`, n: huge})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var er wire.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == nil {
			t.Fatalf("%s: HTTP %d with undecodable error body %q", path, rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusInsufficientStorage || er.Error.Kind != "resource-limit" || !strings.Contains(er.Error.Msg, "request body exceeds") {
			t.Fatalf("%s: HTTP %d %+v, want the typed resource-limit refusal", path, rec.Code, er.Error)
		}
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > huge/2 {
		t.Fatalf("refusing six %d MB bodies allocated %d MB", huge>>20, grown>>20)
	}
}

// TestServeSessionLifecycle pins the session-state machine at the wire
// level: a result that fits the first chunk comes back whole from execute
// with no cursor left behind; a longer one streams through fetch, and
// fetch past EOF re-reports EOF; closing a cursor twice is a safe no-op,
// closing a session twice is idempotent, and using a closed session is a
// typed unavailable error.
func TestServeSessionLifecycle(t *testing.T) {
	_, srv, _ := newLoopback(t, server.Config{FetchRows: 4, SessionIdleTimeout: time.Minute})
	h := srv.Handler()
	session := wireSession(t, h)

	// Three rows under a four-row chunk: one exchange, nothing to fetch or
	// close.
	var one wire.ExecuteResponse
	if we := postWire(t, h, wire.PathExecute, wire.ExecuteRequest{
		Session: session, SQL: "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID < 1003",
	}, &one); we != nil {
		t.Fatalf("execute: %v", we)
	}
	if want := []string{"1000", "1001", "1002"}; one.Cursor != 0 || !one.EOF || one.Error != nil || !reflect.DeepEqual(one.Rows, want) {
		t.Fatalf("one-chunk execute: %+v, want rows %q, EOF and cursor 0", one, want)
	}
	var cc wire.CloseCursorResponse
	if we := postWire(t, h, wire.PathCloseCursor, wire.CloseCursorRequest{Session: session, Cursor: one.Cursor}, &cc); we != nil || cc.Closed {
		t.Fatalf("close of a finished result: closed=%v err=%v, want a no-op", cc.Closed, we)
	}
	if st := srv.Stats(); st.CursorsOpen != 0 || st.QueriesInFlight != 0 {
		t.Fatalf("one-chunk result left server state: %+v", st)
	}

	// Six rows: the first four with execute, the rest through fetch.
	var ex wire.ExecuteResponse
	if we := postWire(t, h, wire.PathExecute, wire.ExecuteRequest{
		Session: session, SQL: "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID < 1006",
	}, &ex); we != nil {
		t.Fatalf("execute: %v", we)
	}
	if ex.Cursor == 0 || ex.EOF || ex.Error != nil || len(ex.Rows) != 4 {
		t.Fatalf("multi-chunk execute: %+v, want a cursor and four rows", ex)
	}
	rows := ex.Rows
	seq := int64(1) // the execute's chunk
	for {
		seq++
		var fr wire.FetchResponse
		if we := postWire(t, h, wire.PathFetch, wire.FetchRequest{Session: session, Cursor: ex.Cursor, Seq: seq}, &fr); we != nil {
			t.Fatalf("fetch: %v", we)
		}
		if fr.Error != nil {
			t.Fatalf("fetch error: %v", fr.Error)
		}
		rows = append(rows, fr.Rows...)
		if fr.EOF {
			break
		}
	}
	if want := []string{"1000", "1001", "1002", "1003", "1004", "1005"}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("fetched rows %q, want %q", rows, want)
	}

	// Fetch past EOF: EOF again, not an error, no rows.
	var past wire.FetchResponse
	if we := postWire(t, h, wire.PathFetch, wire.FetchRequest{Session: session, Cursor: ex.Cursor, Seq: seq + 1}, &past); we != nil {
		t.Fatalf("fetch past EOF: %v", we)
	}
	if !past.EOF || past.Error != nil || len(past.Rows) != 0 {
		t.Fatalf("fetch past EOF: got %+v, want bare EOF", past)
	}

	// Double close-cursor: first close reports a live cursor, the second
	// is a successful no-op.
	if we := postWire(t, h, wire.PathCloseCursor, wire.CloseCursorRequest{Session: session, Cursor: ex.Cursor}, &cc); we != nil || !cc.Closed {
		t.Fatalf("close cursor: closed=%v err=%v", cc.Closed, we)
	}
	if we := postWire(t, h, wire.PathCloseCursor, wire.CloseCursorRequest{Session: session, Cursor: ex.Cursor}, &cc); we != nil || cc.Closed {
		t.Fatalf("double close cursor: closed=%v err=%v, want idempotent no-op", cc.Closed, we)
	}

	// Fetch on the closed cursor is a typed permanent error.
	if we := postWire(t, h, wire.PathFetch, wire.FetchRequest{Session: session, Cursor: ex.Cursor, Seq: seq + 2}, &past); we == nil {
		t.Fatal("fetch on closed cursor succeeded")
	} else if aqerr.ParseKind(we.Kind) != aqerr.KindPermanent {
		t.Fatalf("fetch on closed cursor: kind %s, want permanent", we.Kind)
	}

	// Executing an unknown prepared statement is permanent, not a crash.
	if we := postWire(t, h, wire.PathExecute, wire.ExecuteRequest{Session: session, Stmt: 9999}, &ex); we == nil {
		t.Fatal("execute of unknown statement succeeded")
	} else if aqerr.ParseKind(we.Kind) != aqerr.KindPermanent {
		t.Fatalf("unknown statement: kind %s, want permanent", we.Kind)
	}

	// Session close is idempotent; everything after it is unavailable.
	var cs wire.CloseSessionResponse
	if we := postWire(t, h, wire.PathCloseSession, wire.CloseSessionRequest{Session: session}, &cs); we != nil {
		t.Fatalf("close session: %v", we)
	}
	if we := postWire(t, h, wire.PathCloseSession, wire.CloseSessionRequest{Session: session}, &cs); we != nil {
		t.Fatalf("double close session: %v", we)
	}
	if we := postWire(t, h, wire.PathExecute, wire.ExecuteRequest{Session: session, SQL: "SELECT 1 FROM CUSTOMERS"}, &ex); we == nil {
		t.Fatal("execute on closed session succeeded")
	} else if aqerr.ParseKind(we.Kind) != aqerr.KindUnavailable {
		t.Fatalf("execute on closed session: kind %s, want unavailable", we.Kind)
	}
}

// TestServeOneRoundTrip pins what a served result costs in HTTP requests.
// One that ends inside the execute response's chunk — a prepared point
// lookup, an empty result, one row short of a chunk, an in-band error
// after its prefix — is that one request, and the server holds no cursor
// and no admission slot once it is answered. A result of a full chunk or
// more keeps the cursor protocol: execute, fetch, cursor close. Every
// result is one evaluation either way.
func TestServeOneRoundTrip(t *testing.T) {
	const fetchRows = 8 // the edge table has 9 rows; row 8 fails in XML mode
	srv := server.New(edgePlatform(), server.Config{FetchRows: fetchRows, SessionIdleTimeout: time.Minute})
	defer srv.Close()
	h := srv.Handler()
	var paths []string
	c, err := remoteclient.Loopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		paths = append(paths, r.URL.Path)
		h.ServeHTTP(w, r)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	point, err := c.Prepare(ctx, "SELECT S FROM EDGE WHERE K = ?", ModeText)
	if err != nil {
		t.Fatal(err)
	}
	adhoc := func(mode ResultMode, sql string) func() (*Rows, error) {
		return func() (*Rows, error) { return c.Query(ctx, mode, sql) }
	}

	oneTrip := []string{wire.PathExecute}
	cursorTrips := []string{wire.PathExecute, wire.PathFetch, wire.PathCloseCursor}
	for _, tc := range []struct {
		name  string
		run   func() (*Rows, error)
		rows  int
		fails bool
		want  []string
	}{
		{"prepared point lookup", func() (*Rows, error) { return point.Execute(ctx, 9) }, 1, false, oneTrip},
		{"no rows", adhoc(ModeText, "SELECT K FROM EDGE WHERE K > 9"), 0, false, oneTrip},
		{"one row short of a chunk", adhoc(ModeText, "SELECT K FROM EDGE WHERE K < 8"), fetchRows - 1, false, oneTrip},
		{"in-band error after 5 rows", adhoc(ModeXML, "SELECT K, N FROM EDGE WHERE K > 2"), 5, true, oneTrip},
		{"exactly a chunk", adhoc(ModeText, "SELECT K FROM EDGE WHERE K < 9"), fetchRows, false, cursorTrips},
		{"a chunk and a row", adhoc(ModeText, "SELECT K FROM EDGE"), fetchRows + 1, false, cursorTrips},
	} {
		before := srv.Stats()
		paths = nil
		rows, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		oneShot := len(tc.want) == 1
		if st := srv.Stats(); oneShot && (st.CursorsOpen != 0 || st.WeightedInFlight != 0) {
			t.Fatalf("%s: answered execute left %d cursors open, %d slots held", tc.name, st.CursorsOpen, st.WeightedInFlight)
		}
		n := 0
		for rows.Next() {
			n++
		}
		rerr := rows.Err()
		rows.Close()
		if n != tc.rows || (rerr != nil) != tc.fails {
			t.Fatalf("%s: %d rows, err %v; want %d rows, failure %v", tc.name, n, rerr, tc.rows, tc.fails)
		}
		if !reflect.DeepEqual(paths, tc.want) {
			t.Fatalf("%s: requests %q, want %q", tc.name, paths, tc.want)
		}
		st := srv.Stats()
		if st.CursorsOpen != 0 || st.WeightedInFlight != 0 || st.QueriesInFlight != 0 {
			t.Fatalf("%s: server state left behind: %+v", tc.name, st)
		}
		if opened := st.CursorsOpened - before.CursorsOpened; opened != 1 {
			t.Fatalf("%s: %d evaluations counted, want 1", tc.name, opened)
		}
	}
}

// TestServeSessionReap pins the abandoned-client guard: a session idle
// past the timeout is reaped, its cursor is closed (cancelling the
// evaluation and returning the admission slot), and later requests on the
// session are typed unavailable errors.
func TestServeSessionReap(t *testing.T) {
	_, srv, c := newLoopback(t, server.Config{
		FetchRows:          2,
		SessionIdleTimeout: 40 * time.Millisecond,
	})

	// Open a cursor over a large join and abandon it mid-stream.
	rows, err := c.Query(context.Background(), ModeText,
		"SELECT C.CUSTOMERID FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// No Close, no more fetches: the client just goes away.

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.SessionsReaped >= 1 && st.CursorsReaped >= 1 && st.QueriesInFlight == 0 && st.CursorsOpen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reaper never cleaned up: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The reaped session is gone: new work on it is typed unavailable.
	_, err = c.Query(context.Background(), ModeText, "SELECT CUSTOMERID FROM CUSTOMERS")
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("execute on reaped session: %v, want unavailable QueryError", err)
	}
}

// TestServeAdmissionControl pins the load-shed path: with one admission
// slot held by an undrained cursor, the next execute is rejected with a
// typed unavailable error and counted; releasing the cursor frees the
// slot. The chunk is small so the holder's 50 rows outlast its execute.
func TestServeAdmissionControl(t *testing.T) {
	_, srv, c := newLoopback(t, server.Config{
		MaxConcurrentQueries: 1,
		AdmissionWait:        time.Millisecond,
		SessionIdleTimeout:   time.Minute,
		FetchRows:            4,
	})
	ctx := context.Background()

	holder, err := c.Query(ctx, ModeText, "SELECT CUSTOMERID FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}

	_, err = c.Query(ctx, ModeText, "SELECT CITY FROM CUSTOMERS")
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("over-admission execute: %v, want unavailable QueryError", err)
	}
	if st := srv.Stats(); st.AdmissionRejected < 1 || st.QueriesInFlight != 1 {
		t.Fatalf("admission counters: %+v", st)
	}

	holder.Close() // releases the slot
	again, err := c.Query(ctx, ModeText, "SELECT CITY FROM CUSTOMERS")
	if err != nil {
		t.Fatalf("execute after release: %v", err)
	}
	if _, err := drainClose(again); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.QueriesInFlight != 0 {
		t.Fatalf("in-flight not drained: %+v", st)
	}
}

// TestServeNegativeCapsTakeDefaults: a negative session cap, admission
// capacity, queue length or queue wait means "unset", as zero does. A
// negative capacity once reached admission as is, and every execute shed
// as "admission queue full (-4 waiting)".
func TestServeNegativeCapsTakeDefaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  server.Config
	}{
		{"MaxSessions", server.Config{MaxSessions: -1}},
		{"MaxConcurrentQueries", server.Config{MaxConcurrentQueries: -1}},
		{"AdmissionQueue", server.Config{AdmissionQueue: -1}},
		{"AdmissionWait", server.Config{AdmissionWait: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, c := newLoopback(t, tc.cfg)
			rows, err := c.Query(context.Background(), ModeText, "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID < 1003")
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			if got, err := drainClose(rows); err != nil || got == "" {
				t.Fatalf("drain = %q, %v", got, err)
			}
		})
	}
}

// TestResultColumnFacetsAgree checks every surface that hands out a result
// schema — the facade, database/sql, served prepare, and served ad-hoc
// execute — reports PAYMENT's declared DECIMAL(10,2) facets.
func TestResultColumnFacetsAgree(t *testing.T) {
	p, _, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	ctx := context.Background()
	const q = "SELECT PAYMENT FROM PAYMENTS"
	check := func(surface string, prec, scale int64) {
		t.Helper()
		if prec != 10 || scale != 2 {
			t.Fatalf("%s: PAYMENT facets (%d, %d), want (10, 2)", surface, prec, scale)
		}
	}

	rows, err := p.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	col := rows.Columns()[0]
	rows.Close()
	check("facade", int64(col.Precision), int64(col.Scale))

	p.RegisterDriver("facets-test")
	db, err := sql.Open("aqualogic", "facets-test")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dr, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	types, err := dr.ColumnTypes()
	dr.Close()
	if err != nil {
		t.Fatal(err)
	}
	prec, scale, _ := types[0].DecimalSize()
	check("database/sql", prec, scale)

	st, err := c.Prepare(ctx, q, ModeText)
	if err != nil {
		t.Fatal(err)
	}
	col = st.Columns()[0]
	check("served prepare", int64(col.Precision), int64(col.Scale))

	remote, err := c.Query(ctx, ModeText, q)
	if err != nil {
		t.Fatal(err)
	}
	col = remote.Columns()[0]
	remote.Close()
	check("served execute", int64(col.Precision), int64(col.Scale))
}

// TestServePreparedAcrossViewChange pins prepared statements against
// catalog churn: a CREATE VIEW mid-session bumps the metadata generation,
// and the next execution of an already-prepared statement recompiles
// against the new catalog instead of running a stale plan.
func TestServePreparedAcrossViewChange(t *testing.T) {
	p, _, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	ctx := context.Background()

	st, err := c.Prepare(ctx, "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID = ?", ModeText)
	if err != nil {
		t.Fatal(err)
	}
	if st.ParamCount() != 1 || len(st.Columns()) != 1 {
		t.Fatalf("prepared shape: params=%d cols=%d", st.ParamCount(), len(st.Columns()))
	}
	first, err := st.Execute(ctx, 1005)
	if err != nil {
		t.Fatal(err)
	}
	want, err := drainClose(first)
	if err != nil {
		t.Fatal(err)
	}

	missesBefore := p.CompileStats().Misses
	if err := c.DefineView(ctx, "Views", "V_SERVE_CHURN", "SELECT CUSTOMERID, CITY FROM CUSTOMERS"); err != nil {
		t.Fatalf("create view: %v", err)
	}

	second, err := st.Execute(ctx, 1005)
	if err != nil {
		t.Fatalf("execute after view change: %v", err)
	}
	got, err := drainClose(second)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("prepared result changed across unrelated view churn\ngot:  %s\nwant: %s", got, want)
	}
	if misses := p.CompileStats().Misses; misses <= missesBefore {
		t.Fatalf("execution after CREATE VIEW reused a stale compile (misses %d -> %d)", missesBefore, misses)
	}

	// The new view is queryable in the same session.
	vrows, err := c.Query(ctx, ModeText, "SELECT CITY FROM V_SERVE_CHURN WHERE CUSTOMERID = 1005")
	if err != nil {
		t.Fatalf("query new view: %v", err)
	}
	if out, err := drainClose(vrows); err != nil || !strings.Contains(out, "|") {
		t.Fatalf("view rows: %q err=%v", out, err)
	}
}

// TestRowsErrDistinguishesCancelFromServerFault is the regression net for
// Rows.Err classification when a stream dies: a client-side context
// cancellation must surface as a timeout-kind QueryError still matching
// errors.Is(err, context.Canceled), while a server-side failure must keep
// its own typed kind — the two are programmatically distinguishable.
func TestRowsErrDistinguishesCancelFromServerFault(t *testing.T) {
	const bigJoin = "SELECT C.CUSTOMERID FROM CUSTOMERS C, PAYMENTS P"

	t.Run("in-process cancel", func(t *testing.T) {
		p := Demo()
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := p.QueryStreamMode(ctx, ModeText, bigJoin)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		cancel()
		for rows.Next() {
		}
		err = rows.Err()
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) || qe.Kind != aqerr.KindTimeout {
			t.Fatalf("Err() = %v, want timeout-kind QueryError", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Err() = %v, want errors.Is(context.Canceled)", err)
		}
	})

	t.Run("remote cancel", func(t *testing.T) {
		_, srv, c := newLoopback(t, server.Config{FetchRows: 2, SessionIdleTimeout: time.Minute})
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := c.Query(ctx, ModeText, bigJoin)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		cancel()
		for rows.Next() {
		}
		err = rows.Err()
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) || qe.Kind != aqerr.KindTimeout {
			t.Fatalf("Err() = %v, want timeout-kind QueryError", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Err() = %v, want errors.Is(context.Canceled)", err)
		}
		// Cursor cleanup survives the cancelled stream context.
		rows.Close()
		if st := srv.Stats(); st.CursorsOpen != 0 || st.QueriesInFlight != 0 {
			t.Fatalf("server state after cancelled client: %+v", st)
		}
	})

	t.Run("server fault", func(t *testing.T) {
		inj := faultnet.New(faultnet.Config{Seed: 11, Rate: 0, Kinds: []faultnet.Kind{faultnet.KindTransient}})
		_, _, c := newLoopback(t, server.Config{
			FetchRows:          2,
			SessionIdleTimeout: time.Minute,
			Faults:             inj,
		})
		rows, err := c.Query(context.Background(), ModeText, bigJoin)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		inj.SetRate(1) // every later fetch fails server-side
		for rows.Next() {
		}
		err = rows.Err()
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) || qe.Kind != aqerr.KindTransient {
			t.Fatalf("Err() = %v, want transient-kind QueryError", err)
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("server fault misclassified as client cancel: %v", err)
		}
	})
}

// TestServeMetadataSurface pins the remote catalog surface: the client is
// a catalog.Source whose lookups, typed not-found errors, and listings
// match the in-process catalog.
func TestServeMetadataSurface(t *testing.T) {
	p, _, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})

	meta, err := c.Lookup(catalog.TableRef{Table: "CUSTOMERS"})
	if err != nil {
		t.Fatalf("remote lookup: %v", err)
	}
	local, err := p.Metadata().Lookup(catalog.TableRef{Table: "CUSTOMERS"})
	if err != nil {
		t.Fatalf("local lookup: %v", err)
	}
	if meta.Schema != local.Schema {
		t.Fatalf("metadata diverged: remote schema %q, local %q", meta.Schema, local.Schema)
	}

	if _, err := c.Lookup(catalog.TableRef{Table: "NO_SUCH_TABLE"}); err == nil {
		t.Fatal("lookup of missing table succeeded")
	} else {
		var nf *catalog.NotFoundError
		if !errors.As(err, &nf) {
			t.Fatalf("missing table error: %v, want catalog.NotFoundError", err)
		}
	}

	remoteTables, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	localTables, err := p.Metadata().Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(remoteTables) != len(localTables) || len(remoteTables) == 0 {
		t.Fatalf("table listing diverged: remote %d, local %d", len(remoteTables), len(localTables))
	}

	// EXPLAIN over the wire matches the in-process compile.
	text, err := c.Explain(context.Background(), "SELECT CUSTOMERID FROM CUSTOMERS", ModeText)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "-- query plan (evaluator):") || !strings.Contains(text, "for $") {
		t.Fatalf("explain text missing plan or XQuery:\n%s", text)
	}
}

// TestServeSmoke is the end-to-end TCP path behind `make serve-smoke`: a
// real listener, a dialed client, a conformance subset, then a clean
// drain — no leaked goroutines, no open server state.
func TestServeSmoke(t *testing.T) {
	baseline := runtime.NumGoroutine()

	p := Demo()
	srv := server.New(p, server.Config{SessionIdleTimeout: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = hs.Serve(ln)
	}()

	c, err := remoteclient.Dial("http://" + ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for _, sql := range compiledCorpus()[:5] {
		args := chaosArgs(strings.Count(sql, "?"))
		local, err := p.QueryStreamMode(context.Background(), ModeText, sql, args...)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := c.Query(context.Background(), ModeText, sql, args...)
		if err != nil {
			t.Fatalf("%q over TCP: %v", sql, err)
		}
		got, err := drainClose(remote)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalRows(local); got != want {
			t.Fatalf("%q over TCP diverged\ngot:  %s\nwant: %s", sql, got, want)
		}
	}
	if _, err := c.ServerStats(context.Background()); err != nil {
		t.Fatalf("stats endpoint: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}

	sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil {
		t.Fatalf("http shutdown: %v", err)
	}
	<-serveDone
	srv.Close()

	if st := srv.Stats(); st.SessionsOpen != 0 || st.CursorsOpen != 0 || st.QueriesInFlight != 0 {
		t.Fatalf("server state after shutdown: %+v", st)
	}
	// Transport teardown is asynchronous; allow it to settle.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
