package aqualogic

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// Logical data service (view) tests — the paper's §2 layering: new data
// services defined by queries over existing ones, themselves queryable and
// further composable.

func TestDefineViewBasic(t *testing.T) {
	p := Demo()
	err := p.DefineView("Logical", "BIG_SPENDERS", `
		SELECT CUSTID, SUM(PAYMENT) AS TOTAL FROM PAYMENTS
		GROUP BY CUSTID HAVING SUM(PAYMENT) > 500`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Query("SELECT COUNT(*) FROM BIG_SPENDERS")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	n, _, _ := rows.Int64(0)
	if n == 0 {
		t.Fatal("expected some big spenders in the demo data")
	}
	// The view's rows agree with the underlying query.
	direct, err := p.Query(`SELECT COUNT(*) FROM (SELECT CUSTID, SUM(PAYMENT) AS TOTAL
		FROM PAYMENTS GROUP BY CUSTID HAVING SUM(PAYMENT) > 500) AS D`)
	if err != nil {
		t.Fatal(err)
	}
	direct.Next()
	want, _, _ := direct.Int64(0)
	if n != want {
		t.Fatalf("view count %d != direct count %d", n, want)
	}
}

// TestViewCountedAsAnExecution: a query over a view is two executions in
// the engine's Stats, the outer query and the view, and the view's rows
// pass through its cursor, so both row counts are counted.
func TestViewCountedAsAnExecution(t *testing.T) {
	p := Demo()
	if err := p.DefineView("Logical", "FIRST_FIVE", "SELECT CUSTOMERID, CITY FROM CUSTOMERS WHERE CUSTOMERID < 1005"); err != nil {
		t.Fatal(err)
	}
	before := p.Engine.Stats()
	rows, err := p.Query("SELECT CUSTOMERID FROM FIRST_FIVE")
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Len(); n != 5 {
		t.Fatalf("view query returned %d rows, want 5", n)
	}
	after := p.Engine.Stats()
	if d := after.QueriesExecuted - before.QueriesExecuted; d != 2 {
		t.Fatalf("a query over a view added %d executions, want 2 (the query and the view)", d)
	}
	if d := after.Rows - before.Rows; d != 10 {
		t.Fatalf("a query over a view added %d rows, want 10 (5 from the view, 5 from the query)", d)
	}
}

func TestViewJoinsWithBaseTable(t *testing.T) {
	p := Demo()
	if err := p.DefineView("Logical", "PAYTOTALS", `
		SELECT CUSTID, SUM(PAYMENT) AS TOTAL FROM PAYMENTS GROUP BY CUSTID`); err != nil {
		t.Fatal(err)
	}
	rows, err := p.Query(`
		SELECT C.CUSTOMERNAME, V.TOTAL
		FROM CUSTOMERS C INNER JOIN PAYTOTALS V ON C.CUSTOMERID = V.CUSTID
		ORDER BY V.TOTAL DESC FETCH FIRST 3 ROWS ONLY`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("rows = %d", rows.Len())
	}
	rows.Next()
	if _, ok, _ := rows.Float64(1); !ok {
		t.Fatal("total should be non-null")
	}
}

func TestViewOverView(t *testing.T) {
	p := Demo()
	if err := p.DefineView("Logical", "V1", "SELECT CUSTOMERID AS ID, CITY FROM CUSTOMERS WHERE CITY IS NOT NULL"); err != nil {
		t.Fatal(err)
	}
	if err := p.DefineView("Logical", "V2", "SELECT CITY, COUNT(*) AS N FROM V1 GROUP BY CITY"); err != nil {
		t.Fatal(err)
	}
	rows, err := p.Query("SELECT CITY FROM V2 WHERE N > 1 ORDER BY CITY")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Fatal("expected multi-customer cities")
	}
}

func TestViewVisibleThroughDriver(t *testing.T) {
	p := Demo()
	if err := p.DefineView("Logical", "DRIVER_VIEW", "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS"); err != nil {
		t.Fatal(err)
	}
	p.RegisterDriver("views-test")
	db := openSQL(t, "views-test")
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM DRIVER_VIEW").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("count = %d", n)
	}
	// The view shows up in SHOW TABLES.
	rows, err := db.Query("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	found := false
	for rows.Next() {
		var cat, schema, name, typ string
		if err := rows.Scan(&cat, &schema, &name, &typ); err != nil {
			t.Fatal(err)
		}
		if name == "DRIVER_VIEW" {
			found = true
		}
	}
	if !found {
		t.Fatal("view missing from SHOW TABLES")
	}
}

func TestViewNullColumnsStayNull(t *testing.T) {
	p := Demo()
	if err := p.DefineView("Logical", "CITYVIEW", "SELECT CUSTOMERID AS ID, CITY FROM CUSTOMERS"); err != nil {
		t.Fatal(err)
	}
	rows, err := p.Query("SELECT COUNT(*) FROM CITYVIEW WHERE CITY IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	n, _, _ := rows.Int64(0)
	if n == 0 {
		t.Fatal("NULL cities must survive the view boundary")
	}
}

// TestViewObservesCallerDeadline: a view evaluates under the calling
// query's context, so the query's deadline reaches the data service calls
// inside the view — here a source that blocks until its context is done.
func TestViewObservesCallerDeadline(t *testing.T) {
	p := Demo()
	release := make(chan struct{})
	defer close(release)
	p.App.AddDSFile(&DSFile{Path: "Slow", Name: "STALL", Functions: []*Function{
		NewRelationalImport("Slow", "STALL", []Column{{Name: "ID", Type: SQLInteger}})}})
	p.Engine.RegisterContext("ld:Slow/STALL", "STALL", func(ctx context.Context, _ []Sequence) (Sequence, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return nil, nil
		}
	})
	if err := p.DefineView("Logical", "STALLED", "SELECT ID FROM STALL"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		rows, err := p.QueryStreamMode(ctx, ModeText, "SELECT ID FROM STALLED")
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
		var qe *QueryError
		if !errors.As(err, &qe) || qe.Kind != ErrTimeout {
			t.Fatalf("err = %v, want a typed timeout", err)
		}
	case <-time.After(time.Second):
		t.Fatal("query over a view ignored its 50ms deadline")
	}
}

func TestDefineViewErrors(t *testing.T) {
	p := Demo()
	if err := p.DefineView("L", "BAD1", "SELECT NOPE FROM CUSTOMERS"); err == nil {
		t.Fatal("invalid view SQL should fail")
	}
	if err := p.DefineView("L", "BAD2", "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = ?"); err == nil ||
		!strings.Contains(err.Error(), "parameter") {
		t.Fatalf("parameterized view: %v", err)
	}
	if err := p.DefineView("L", "BAD3", "SELECT CUSTOMERID, CUSTOMERID FROM CUSTOMERS"); err == nil ||
		!strings.Contains(err.Error(), "duplicate output column") {
		t.Fatalf("duplicate labels: %v", err)
	}
	if err := p.DefineView("L", "CUSTOMERS", "SELECT CUSTOMERID FROM CUSTOMERS"); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("name clash: %v", err)
	}
}

func TestCreateViewThroughDriver(t *testing.T) {
	p := Demo()
	p.RegisterDriver("create-view-test")
	db := openSQL(t, "create-view-test")
	_, err := db.Exec(`CREATE VIEW Logical.SQLVIEW AS
		SELECT CUSTID, COUNT(*) AS N FROM PAYMENTS GROUP BY CUSTID`)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM SQLVIEW").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("view should have rows")
	}
	// Bad view SQL surfaces as an error.
	if _, err := db.Exec("CREATE VIEW BROKEN AS SELECT NOPE FROM CUSTOMERS"); err == nil {
		t.Fatal("invalid view should fail")
	}
	if _, err := db.Exec("CREATE VIEW MALFORMED SELECT 1"); err == nil {
		t.Fatal("missing AS should fail")
	}
}

func TestDefineViewInvalidatesCompiledQueries(t *testing.T) {
	p := Demo()
	sql := "SELECT BIG FROM BIGSPENDERS"
	// A statement over the App cached before the view exists must be
	// retired by the definition: it depends on the App's metadata.
	const payments = "SELECT PAYMENT FROM PAYMENTS WHERE PAYMENT > 100"
	before, err := p.CompileContext(context.Background(), payments, ModeText)
	if err != nil {
		t.Fatal(err)
	}
	// Compiling before the view exists fails — and that failure must not
	// pin the name: defining the view retires everything compiled against
	// the old catalog, so the verbatim statement then succeeds.
	if _, err := p.Query(sql); err == nil {
		t.Fatal("query against missing view should fail")
	}
	if err := p.DefineView("Views", "BIGSPENDERS",
		"SELECT CUSTID ID, PAYMENT BIG FROM PAYMENTS WHERE PAYMENT > 100"); err != nil {
		t.Fatal(err)
	}
	rows, err := p.Query(sql)
	if err != nil {
		t.Fatalf("query after CREATE VIEW: %v", err)
	}
	if !rows.Next() {
		t.Fatal("view returned no rows")
	}
	// And the repeat is a compile-cache hit on the new artifact.
	if _, err := p.Query(sql); err != nil {
		t.Fatal(err)
	}
	if cs := p.CompileStats(); cs.Hits < 1 {
		t.Fatalf("compile stats = %+v", cs)
	}
	if p.queryCache().Fresh(before) {
		t.Fatal("an artifact over PAYMENTS compiled before the view is still fresh")
	}
	base := p.CompileStats()
	after, err := p.CompileContext(context.Background(), payments, ModeText)
	if err != nil {
		t.Fatal(err)
	}
	if cs := p.CompileStats(); after == before || cs.Misses != base.Misses+1 || cs.Hits != base.Hits {
		t.Fatalf("the PAYMENTS statement was served, not recompiled: %+v -> %+v", base, cs)
	}
}

// TestViewOverJoin: a view over an outer join hands back the join's rows,
// NULL padding included, in either result mode. The view's RECORDs are
// flat records built by the record kernel, which the view function reads
// column by column.
func TestViewOverJoin(t *testing.T) {
	p := Demo()
	const join = "SELECT C.CUSTOMERID AS ID, C.CITY, P.PAYMENT FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID"
	if err := p.DefineView("Logical", "CUSTPAY", join); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ResultMode{ModeXML, ModeText} {
		view, err := p.QueryStreamMode(context.Background(), mode, "SELECT ID, CITY, PAYMENT FROM CUSTPAY")
		if err != nil {
			t.Fatal(err)
		}
		direct, err := p.QueryStreamMode(context.Background(), mode, join)
		if err != nil {
			t.Fatal(err)
		}
		got, want := view.Table(), direct.Table()
		if got != want {
			t.Fatalf("mode %v: view rows\n%s\ndirect rows\n%s", mode, got, want)
		}
		if !strings.Contains(got, "NULL") {
			t.Fatalf("mode %v: the outer join's NULL padding must survive the view:\n%s", mode, got)
		}
	}
}
