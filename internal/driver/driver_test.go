package driver_test

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	aqualogic "repro"
	"repro/internal/aqerr"
	"repro/internal/demo"
	"repro/internal/driver"
	"repro/internal/remoteclient"
	"repro/internal/server"
)

// The wire client's prepared statement has the Prepared method set; an
// aql:// connection wraps it only to report a lost session.
var _ driver.Prepared = (*remoteclient.Stmt)(nil)

var registerOnce sync.Once

func openDemo(t *testing.T, opts string) *sql.DB {
	t.Helper()
	registerOnce.Do(func() { aqualogic.Demo().RegisterDriver("demo") })
	return open(t, "demo"+opts)
}

func open(t *testing.T, dsn string) *sql.DB {
	t.Helper()
	db, err := sql.Open("aqualogic", dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

var isolatedSeq atomic.Int64

// register exposes p under a fresh DSN name.
func register(p *aqualogic.Platform) string {
	name := fmt.Sprintf("demo-isolated-%d", isolatedSeq.Add(1))
	p.RegisterDriver(name)
	return name
}

// env is a fresh demo platform as database/sql reaches it over one
// transport.
type env struct {
	t   *testing.T
	p   *aqualogic.Platform
	srv *server.Server // nil in process
	dsn string         // the registered name or the aql:// address
}

// open opens the platform with DSN options ("?mode=xml").
func (e env) open(opts string) *sql.DB { return open(e.t, e.dsn+opts) }

// onEachTransport runs fn against a fresh demo platform twice: registered
// in process ("local"), and behind a server on a real TCP listener that
// every connection opens a wire session to by its aql:// address ("wire").
func onEachTransport(t *testing.T, fn func(t *testing.T, e env)) {
	t.Run("local", func(t *testing.T) {
		p := aqualogic.Demo()
		fn(t, env{t: t, p: p, dsn: register(p)})
	})
	t.Run("wire", func(t *testing.T) {
		p := aqualogic.Demo()
		srv, dsn := serve(t, p)
		fn(t, env{t: t, p: p, srv: srv, dsn: dsn})
	})
}

// serve puts p behind a server on a real TCP listener, whose sessions the
// idle reaper leaves alone for the test's lifetime, and returns the server
// and its aql:// DSN.
func serve(t *testing.T, p *aqualogic.Platform) (*server.Server, string) {
	t.Helper()
	srv := server.New(p, server.Config{SessionIdleTimeout: time.Hour})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, "aql://" + hs.Listener.Addr().String()
}

// openIsolated registers a fresh demo platform under a unique DSN and opens
// it: nothing is shared with other tests. The compile and metadata caches
// are per platform, so tests asserting on cold-vs-warm compile or catalog
// behavior (EXPLAIN goldens, cache-effect lines, translate-once counters)
// must use this — on the shared "demo" platform another test may already
// have compiled the same statement.
func openIsolated(t *testing.T, opts string) (*sql.DB, *aqualogic.Platform) {
	t.Helper()
	p := aqualogic.Demo()
	return open(t, register(p)+opts), p
}

func TestQueryThroughDatabaseSQL(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		rows, err := db.Query("SELECT CUSTOMERID, CUSTOMERNAME, CITY FROM CUSTOMERS ORDER BY CUSTOMERID")
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		cols, err := rows.Columns()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(cols, ",") != "CUSTOMERID,CUSTOMERNAME,CITY" {
			t.Fatalf("columns = %v", cols)
		}
		count := 0
		var lastID int64 = -1
		for rows.Next() {
			var id int64
			var name string
			var city sql.NullString
			if err := rows.Scan(&id, &name, &city); err != nil {
				t.Fatal(err)
			}
			if id <= lastID {
				t.Fatalf("ids not ascending: %d after %d", id, lastID)
			}
			lastID = id
			count++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if count != demo.DefaultSizes.Customers {
			t.Fatalf("rows = %d", count)
		}
	})
}

func TestNullScanning(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		rows, err := db.Query("SELECT CITY FROM CUSTOMERS")
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		sawNull, sawValue := false, false
		for rows.Next() {
			var city sql.NullString
			if err := rows.Scan(&city); err != nil {
				t.Fatal(err)
			}
			if city.Valid {
				sawValue = true
			} else {
				sawNull = true
			}
		}
		if !sawNull || !sawValue {
			t.Fatalf("sawNull=%v sawValue=%v (demo data has both)", sawNull, sawValue)
		}
	})
}

func TestPreparedStatementReuse(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		stmt, err := db.Prepare("SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?")
		if err != nil {
			t.Fatal(err)
		}
		defer stmt.Close()
		for _, id := range []int{1000, 1001, 1002} {
			var name string
			if err := stmt.QueryRow(id).Scan(&name); err != nil {
				t.Fatalf("id %d: %v", id, err)
			}
			if name == "" {
				t.Fatalf("id %d: empty name", id)
			}
		}
	})
}

func TestAggregationThroughDriver(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		var n int64
		if err := db.QueryRow("SELECT COUNT(*) FROM PAYMENTS").Scan(&n); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("expected payments")
		}
		var total float64
		if err := db.QueryRow("SELECT SUM(PAYMENT) FROM PAYMENTS").Scan(&total); err != nil {
			t.Fatal(err)
		}
		if total <= 0 {
			t.Fatalf("total = %v", total)
		}
	})
}

func TestXMLModeMatchesTextMode(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		text := e.open("?mode=text")
		xml := e.open("?mode=xml")
		q := "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID"
		collect := func(db *sql.DB) []string {
			rows, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			var out []string
			for rows.Next() {
				var id int64
				var name string
				if err := rows.Scan(&id, &name); err != nil {
					t.Fatal(err)
				}
				out = append(out, name)
			}
			return out
		}
		a, b := collect(text), collect(xml)
		if strings.Join(a, "|") != strings.Join(b, "|") {
			t.Fatal("text and XML modes disagree")
		}
	})
}

func TestShowStatements(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")

		var cat string
		if err := db.QueryRow("SHOW CATALOGS").Scan(&cat); err != nil {
			t.Fatal(err)
		}
		if cat != "TestApp" {
			t.Fatalf("catalog = %q", cat)
		}

		rows, err := db.Query("SHOW TABLES")
		if err != nil {
			t.Fatal(err)
		}
		tables := 0
		for rows.Next() {
			var c, s, n, typ string
			if err := rows.Scan(&c, &s, &n, &typ); err != nil {
				t.Fatal(err)
			}
			if typ != "TABLE" {
				t.Fatalf("type = %q", typ)
			}
			tables++
		}
		rows.Close()
		if tables != 4 {
			t.Fatalf("tables = %d", tables)
		}

		rows, err = db.Query("SHOW COLUMNS FROM CUSTOMERS")
		if err != nil {
			t.Fatal(err)
		}
		colCount := 0
		for rows.Next() {
			var name, typ, nullable string
			var pos int64
			if err := rows.Scan(&name, &typ, &nullable, &pos); err != nil {
				t.Fatal(err)
			}
			colCount++
		}
		rows.Close()
		if colCount != 4 {
			t.Fatalf("columns = %d", colCount)
		}

		rows, err = db.Query("SHOW PROCEDURES")
		if err != nil {
			t.Fatal(err)
		}
		procs := 0
		for rows.Next() {
			var c, s, n string
			var params int64
			if err := rows.Scan(&c, &s, &n, &params); err != nil {
				t.Fatal(err)
			}
			if n != "getCustomerById" || params != 1 {
				t.Fatalf("proc = %s(%d)", n, params)
			}
			procs++
		}
		rows.Close()
		if procs != 1 {
			t.Fatalf("procs = %d", procs)
		}

		if _, err := db.Query("SHOW NONSENSE"); err == nil {
			t.Fatal("unknown SHOW should fail")
		}
	})
}

func TestCallProcedure(t *testing.T) {
	db := openDemo(t, "")
	var id int64
	var name string
	var city, signup sql.NullString
	err := db.QueryRow("CALL getCustomerById(?)", 1003).Scan(&id, &name, &city, &signup)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1003 || name == "" {
		t.Fatalf("got %d %q", id, name)
	}
	// Literal-argument and JDBC-escape forms.
	if err := db.QueryRow("CALL getCustomerById(1004)").Scan(&id, &name, &city, &signup); err != nil {
		t.Fatal(err)
	}
	if id != 1004 {
		t.Fatalf("id = %d", id)
	}
	if err := db.QueryRow("{call getCustomerById('1005')}").Scan(&id, &name, &city, &signup); err != nil {
		t.Fatal(err)
	}
	if id != 1005 {
		t.Fatalf("id = %d", id)
	}
}

func TestCallErrors(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		if _, err := db.Query("CALL CUSTOMERS()"); err == nil || !strings.Contains(err.Error(), "is a table") {
			t.Fatalf("err = %v", err)
		}
		if _, err := db.Query("CALL getCustomerById()"); err == nil || !strings.Contains(err.Error(), "expects 1 argument") {
			t.Fatalf("err = %v", err)
		}
		if _, err := db.Query("CALL noSuchProc(1)"); err == nil {
			t.Fatal("unknown procedure should fail")
		}
	})
}

func TestReadOnlyRefusals(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		if _, err := db.Exec("SELECT * FROM CUSTOMERS"); err == nil {
			t.Fatal("Exec should be refused")
		}
		if _, err := db.Begin(); err == nil {
			t.Fatal("transactions should be refused")
		}
		if _, err := db.Query("INSERT INTO CUSTOMERS VALUES (1)"); err == nil {
			t.Fatal("non-SELECT should fail to parse")
		}
	})
}

// TestBadDSN: a DSN naming nothing usable — an unknown name, a bad option
// (dialect= among them: SQL-92 is the only language), an aql:// address
// without host or port, or with nothing listening — fails to open with a
// typed error, promptly.
func TestBadDSN(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	for _, dsn := range []string{
		"nope",
		"demo?mode=bogus",
		"demo?nonsense",
		"demo?dialect=path",
		"aql://",
		"aql://?mode=xml",
		"aql://127.0.0.1",
		"aql://:7117",
		"aql://" + dead + "?bogus=1",
		"aql://" + dead,
	} {
		db, err := sql.Open("aqualogic", dsn)
		if err != nil {
			t.Fatalf("%s: sql.Open: %v", dsn, err)
		}
		done := make(chan error, 1)
		go func() { done <- db.Ping() }()
		select {
		case err := <-done:
			var qe *aqerr.QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("%s: Ping = %v, want a typed error", dsn, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Ping hung", dsn)
		}
		db.Close()
	}
}

func TestSemanticErrorSurfacesAtPrepare(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		_, err := db.Prepare("SELECT NOPE FROM CUSTOMERS")
		if err == nil || !strings.Contains(err.Error(), "unknown column") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestConcurrentQueries(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var n int64
				if err := db.QueryRow("SELECT COUNT(*) FROM CUSTOMERS").Scan(&n); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

func TestQueryContextCancellation(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
		defer cancel()
		// A triple cross join over the demo tables is far too large to finish
		// within the deadline.
		_, err := db.QueryContext(ctx, `
		SELECT COUNT(*) FROM CUSTOMERS A, CUSTOMERS B, CUSTOMERS C, PO_CUSTOMERS D`)
		if err == nil {
			t.Fatal("expected cancellation")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestExplainStatement(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		rows, err := db.Query("EXPLAIN SELECT INFO.ID FROM (SELECT CUSTOMERID ID FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10")
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var lines []string
		for rows.Next() {
			var line string
			if err := rows.Scan(&line); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, line)
		}
		plan := strings.Join(lines, "\n")
		for _, want := range []string{
			"query contexts", "CTX0 (marker)", "CTX1:", "CTX2:",
			"generated XQuery", "let $tempvar", "RECORDSET",
		} {
			if !strings.Contains(plan, want) {
				t.Fatalf("plan missing %q:\n%s", want, plan)
			}
		}
		if _, err := db.Query("EXPLAIN SELECT NOPE FROM CUSTOMERS"); err == nil {
			t.Fatal("EXPLAIN of invalid SQL should fail")
		}
	})
}

func TestColumnTypes(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		rows, err := db.Query("SELECT CUSTOMERID, CUSTOMERNAME, CITY FROM CUSTOMERS")
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		types, err := rows.ColumnTypes()
		if err != nil {
			t.Fatal(err)
		}
		if types[0].DatabaseTypeName() != "INTEGER" || types[1].DatabaseTypeName() != "VARCHAR" {
			t.Fatalf("type names = %s, %s", types[0].DatabaseTypeName(), types[1].DatabaseTypeName())
		}
		if nullable, ok := types[0].Nullable(); !ok || nullable {
			t.Fatal("CUSTOMERID should be non-nullable")
		}
		if nullable, ok := types[2].Nullable(); !ok || !nullable {
			t.Fatal("CITY should be nullable")
		}
		// VARCHAR length facet (surfaced through DecimalSize, the
		// database/sql accessor for driver precision/scale).
		if p, _, ok := types[1].DecimalSize(); !ok || p != 64 {
			t.Fatalf("CUSTOMERNAME precision = %d ok=%v", p, ok)
		}
	})
}

func TestColumnTypesDecimalFacets(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		rows, err := db.Query("SELECT PAYMENT, CAST(PAYMENT AS DECIMAL(12, 3)) FROM PAYMENTS")
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		types, err := rows.ColumnTypes()
		if err != nil {
			t.Fatal(err)
		}
		p, s, ok := types[0].DecimalSize()
		if !ok || p != 10 || s != 2 {
			t.Fatalf("PAYMENT facets = %d,%d ok=%v", p, s, ok)
		}
		p, s, ok = types[1].DecimalSize()
		if !ok || p != 12 || s != 3 {
			t.Fatalf("CAST facets = %d,%d ok=%v", p, s, ok)
		}
	})
}

func TestTimeParameterAgainstDateColumn(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		cutoff := time.Date(2004, 1, 1, 0, 0, 0, 0, time.UTC)
		var n int64
		err := db.QueryRow("SELECT COUNT(*) FROM CUSTOMERS WHERE SIGNUPDATE >= ?", cutoff).Scan(&n)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("expected signups on or after 2004")
		}
		var all int64
		if err := db.QueryRow("SELECT COUNT(*) FROM CUSTOMERS WHERE SIGNUPDATE IS NOT NULL").Scan(&all); err != nil {
			t.Fatal(err)
		}
		if n > all {
			t.Fatalf("filtered %d > total %d", n, all)
		}
	})
}

// TestCreateViewAcrossConnections: a view created on one connection is
// queryable on another that looked the name up, and failed, before it
// existed — no connection keeps a metadata cache of its own.
func TestCreateViewAcrossConnections(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		ctx := context.Background()
		a, err := db.Conn(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := db.Conn(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		const q = "SELECT COUNT(*) FROM XVIEW"
		var n int64
		if err := b.QueryRowContext(ctx, q).Scan(&n); err == nil {
			t.Fatal("query against a missing view succeeded")
		}
		if _, err := a.ExecContext(ctx, "CREATE VIEW XVIEW AS SELECT CUSTOMERID FROM CUSTOMERS"); err != nil {
			t.Fatal(err)
		}
		if err := b.QueryRowContext(ctx, q).Scan(&n); err != nil || n != 50 {
			t.Fatalf("second connection after CREATE VIEW: count %d, err %v", n, err)
		}
	})
}

// TestPreparedRecompilesAfterCreateView: a prepared statement re-executed
// after CREATE VIEW recompiles against the new catalog (the compile cache
// counts a miss) and answers as before. The rule is
// TestServePreparedAcrossViewChange's, held on every transport.
func TestPreparedRecompilesAfterCreateView(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		db.SetMaxOpenConns(1)
		st, err := db.Prepare("SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?")
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var before, after string
		if err := st.QueryRow(1005).Scan(&before); err != nil {
			t.Fatal(err)
		}
		misses := e.p.CompileStats().Misses
		if _, err := db.Exec("CREATE VIEW V_PREPARED_CHURN AS SELECT CUSTOMERID, CITY FROM CUSTOMERS"); err != nil {
			t.Fatal(err)
		}
		if err := st.QueryRow(1005).Scan(&after); err != nil {
			t.Fatalf("execute after CREATE VIEW: %v", err)
		}
		if after != before {
			t.Fatalf("prepared result changed across unrelated view churn: %q, was %q", after, before)
		}
		if got := e.p.CompileStats().Misses; got <= misses {
			t.Fatalf("execution after CREATE VIEW reused a stale compile (misses %d -> %d)", misses, got)
		}
	})
}

// TestRegisterBeforeAddSource: a source added after RegisterDriver is
// visible through database/sql, as it is through the facade.
func TestRegisterBeforeAddSource(t *testing.T) {
	fx := demo.FederatedSetup(demo.DefaultFederatedSizes, false)
	p := aqualogic.New(fx.App, fx.Engine)
	db := open(t, register(p))
	for _, b := range fx.Extra {
		if err := p.AddSource(b.Name, b.Source); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT AMOUNT FROM INVOICES"
	want, err := p.Query(q)
	if err != nil {
		t.Fatalf("facade: %v", err)
	}
	rows, err := db.Query(q)
	if err != nil {
		t.Fatalf("database/sql: %v", err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 || n != want.Len() {
		t.Fatalf("database/sql read %d invoices, facade %d", n, want.Len())
	}
}

// TestRegisterBeforeResilienceTimeout: a QueryTimeout set by
// EnableResilience after RegisterDriver bounds database/sql statements —
// here one over a data service that blocks until its context is done.
func TestRegisterBeforeResilienceTimeout(t *testing.T) {
	p := aqualogic.Demo()
	release := make(chan struct{})
	defer close(release)
	p.App.AddDSFile(&aqualogic.DSFile{Path: "Slow", Name: "STALL", Functions: []*aqualogic.Function{
		aqualogic.NewRelationalImport("Slow", "STALL", []aqualogic.Column{{Name: "ID", Type: aqualogic.SQLInteger}})}})
	p.Engine.RegisterContext("ld:Slow/STALL", "STALL", func(ctx context.Context, _ []aqualogic.Sequence) (aqualogic.Sequence, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return nil, nil
		}
	})
	db := open(t, register(p))
	p.EnableResilience(aqualogic.ResilienceConfig{QueryTimeout: 50 * time.Millisecond})

	done := make(chan error, 1)
	go func() {
		rows, err := db.Query("SELECT ID FROM STALL")
		if err == nil {
			for rows.Next() {
			}
			err = rows.Err()
			rows.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) || qe.Kind != aqerr.KindTimeout {
			t.Fatalf("err = %v, want a typed timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("database/sql ignored the platform's 50ms QueryTimeout")
	}
}

// TestShowColumnsObservesDeadline: SHOW COLUMNS' table lookup gives up at
// the statement's deadline, here against a metadata source that takes a
// second per round trip.
func TestShowColumnsObservesDeadline(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		e.p.MetadataLatency = time.Second
		db := e.open("")
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		rows, err := db.QueryContext(ctx, "SHOW COLUMNS FROM CUSTOMERS")
		if err == nil {
			rows.Close()
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the statement's deadline", err)
		}
		if took := time.Since(start); took > 500*time.Millisecond {
			t.Fatalf("SHOW COLUMNS took %v past a 50ms deadline", took)
		}
	})
}

// TestCloseEndsWireSessions: closing an aql:// DB ends every wire session
// its connections opened, without waiting for the server's idle reaper.
func TestCloseEndsWireSessions(t *testing.T) {
	srv, dsn := serve(t, aqualogic.Demo())
	db, err := sql.Open("aqualogic", dsn)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var conns []*sql.Conn
	for i := 0; i < 3; i++ {
		c, err := db.Conn(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		if err := c.QueryRowContext(ctx, "SELECT COUNT(*) FROM CUSTOMERS").Scan(&n); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	if open := srv.Stats().SessionsOpen; open != 3 {
		t.Fatalf("%d sessions open for 3 connections", open)
	}
	for _, c := range conns {
		c.Close()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.SessionsOpen != 0 || st.SessionsReaped != 0 {
		t.Fatalf("after db.Close: %d sessions open, %d reaped", st.SessionsOpen, st.SessionsReaped)
	}
}

// TestCallOverWireRefused: the wire protocol has no verb that calls a data
// service function, so CALL over aql:// is a permanent error, not a hang
// or an untyped failure.
func TestCallOverWireRefused(t *testing.T) {
	_, dsn := serve(t, aqualogic.Demo())
	db := open(t, dsn)
	_, err := db.Query("CALL getCustomerById(?)", 1003)
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindPermanent {
		t.Fatalf("err = %v, want a permanent QueryError", err)
	}
}

// TestReapedWireSessionRedials: a pooled aql:// connection whose session
// the server reaped for idleness is dropped, and the statement runs on a
// new session — through an ad-hoc query and through a statement prepared
// before the reap.
func TestReapedWireSessionRedials(t *testing.T) {
	srv := server.New(aqualogic.Demo(), server.Config{SessionIdleTimeout: 20 * time.Millisecond})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	db := open(t, "aql://"+hs.Listener.Addr().String())
	db.SetMaxOpenConns(1)
	st, err := db.Prepare("SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var n int64
	var name string
	for round := 0; round < 2; round++ {
		if err := st.QueryRow(1003).Scan(&name); err != nil {
			t.Fatalf("round %d: prepared statement: %v", round, err)
		}
		if err := db.QueryRow("SELECT COUNT(*) FROM CUSTOMERS").Scan(&n); err != nil {
			t.Fatalf("round %d: ad-hoc query: %v", round, err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for srv.Stats().SessionsReaped <= int64(round) {
			if time.Now().After(deadline) {
				t.Fatal("the server never reaped the idle session")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := db.QueryRow("SELECT COUNT(*) FROM CUSTOMERS").Scan(&n); err != nil || n != 50 {
		t.Fatalf("after two reaps: count %d, err %v", n, err)
	}
	if err := st.QueryRow(1003).Scan(&name); err != nil {
		t.Fatalf("after two reaps: prepared statement: %v", err)
	}
}
