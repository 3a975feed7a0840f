// Federated mediation differentials: a multi-source platform (central
// accounts, a billing backend, an XML-file backend, and a horizontally
// partitioned ORDERS table whose shards live on different sources) must
// answer every query byte-identically to a single-source oracle serving
// the same rows — across both result modes, serial and parallel
// execution, with partition pruning and per-shard pushdown active.
package aqualogic

import (
	"context"
	"database/sql"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// federatedPlatform assembles the multi-source deployment from the demo
// fixture: the central App plus the billing and files backends.
func federatedPlatform(t testing.TB, sz demo.FederatedSizes, partial bool) *Platform {
	t.Helper()
	fx := demo.FederatedSetup(sz, partial)
	p := New(fx.App, fx.Engine)
	for _, b := range fx.Extra {
		if err := p.AddSource(b.Name, b.Source); err != nil {
			t.Fatalf("AddSource(%s): %v", b.Name, err)
		}
	}
	return p
}

// oraclePlatform is the single-source twin serving identical rows.
func oraclePlatform(sz demo.FederatedSizes) *Platform {
	app, engine := demo.OracleSetup(sz)
	return New(app, engine)
}

// federatedCorpus exercises every federated shape: single-backend scans,
// cross-source joins, full scatter-gather over the partitioned table,
// shard-key pinning (constant and parameterized), ordered merges,
// aggregation over scattered rows, and set operations across sources.
func federatedCorpus() []string {
	return []string{
		"SELECT ACCOUNTID, NAME FROM ACCOUNTS",
		"SELECT AMOUNT, STATUS FROM INVOICES WHERE AMOUNT > 100",
		"SELECT REGION, COUNTRY FROM REGIONS ORDER BY REGION",
		"SELECT * FROM ORDERS",
		"SELECT ORDERID, ITEM FROM ORDERS ORDER BY ORDERID",
		"SELECT ORDERID, QTY FROM ORDERS WHERE ACCOUNTID = 105",
		"SELECT ORDERID FROM ORDERS WHERE ACCOUNTID = ? ORDER BY ORDERID",
		"SELECT ITEM, SUM(QTY) FROM ORDERS GROUP BY ITEM",
		"SELECT A.NAME, O.ITEM FROM ACCOUNTS A, ORDERS O WHERE A.ACCOUNTID = O.ACCOUNTID ORDER BY O.ORDERID",
		"SELECT A.NAME, I.AMOUNT FROM ACCOUNTS A, INVOICES I WHERE A.ACCOUNTID = I.ACCOUNTID",
		"SELECT A.REGION, R.COUNTRY FROM ACCOUNTS A LEFT OUTER JOIN REGIONS R ON A.REGION = R.REGION",
		"SELECT ACCOUNTID FROM ORDERS UNION SELECT ACCOUNTID FROM INVOICES",
		"SELECT NAME FROM ACCOUNTS WHERE ACCOUNTID IN (SELECT ACCOUNTID FROM ORDERS WHERE QTY > 10)",
		"SELECT COUNT(*) FROM ORDERS WHERE ACCOUNTID = 106",
	}
}

// federatedBindings binds integer parameters to an in-range account id.
func federatedBindings(res *translator.Result) map[string]xdm.Sequence {
	if res.ParamCount == 0 {
		return nil
	}
	ext := make(map[string]xdm.Sequence, res.ParamCount)
	for i := 0; i < res.ParamCount; i++ {
		var v xdm.Atomic
		switch res.ParamTypes[i] {
		case catalog.SQLInteger, catalog.SQLSmallint, catalog.SQLDecimal, catalog.SQLDouble:
			v = xdm.Integer(107)
		default:
			v = xdm.String("NA")
		}
		ext["p"+strconv.Itoa(i+1)] = xdm.SequenceOf(v)
	}
	return ext
}

// TestFederatedMatchesSingleSource holds federated execution byte-identical
// to the single-source oracle across both result modes and worker counts,
// and proves the scattered path and the morsel workers actually ran.
func TestFederatedMatchesSingleSource(t *testing.T) {
	fed := federatedPlatform(t, demo.DefaultFederatedSizes, false)
	ora := oraclePlatform(demo.DefaultFederatedSizes)

	before := fed.Stats()
	for _, workers := range []int{1, 8} {
		// 4-item morsels from 2 items up, so the demo-sized scans fan out.
		xqeval.ForceFanOutForTest(fed.Engine, workers, 4, 2)
		morsels := fed.Stats().MorselsProcessed
		for _, mode := range []ResultMode{ModeXML, ModeText} {
			for _, q := range federatedCorpus() {
				fcq, err := fed.CompileContext(context.Background(), q, mode)
				if err != nil {
					t.Fatalf("workers=%d mode=%v: federated compile %q: %v", workers, mode, q, err)
				}
				ocq, err := ora.CompileContext(context.Background(), q, mode)
				if err != nil {
					t.Fatalf("workers=%d mode=%v: oracle compile %q: %v", workers, mode, q, err)
				}
				ext := federatedBindings(fcq.Res)
				got, err := fed.Engine.EvalPlanWithTrace(context.Background(), fcq.Plan, ext, nil)
				if err != nil {
					t.Fatalf("workers=%d mode=%v: federated eval %q: %v", workers, mode, q, err)
				}
				want, err := ora.Engine.EvalPlanWithTrace(context.Background(), ocq.Plan, ext, nil)
				if err != nil {
					t.Fatalf("workers=%d mode=%v: oracle eval %q: %v", workers, mode, q, err)
				}
				if g, w := xdm.MarshalSequence(got), xdm.MarshalSequence(want); g != w {
					t.Fatalf("workers=%d mode=%v: %q diverged\nfederated: %s\noracle:    %s", workers, mode, q, g, w)
				}
			}
		}
		if got := fed.Stats().MorselsProcessed; workers > 1 && got == morsels {
			t.Fatalf("workers=%d: no scan fanned out (morsels %d -> %d)", workers, morsels, got)
		}
	}
	after := fed.Stats()
	if after.FederatedScans <= before.FederatedScans {
		t.Fatalf("no federated scatter-gather ran (scans %d -> %d)", before.FederatedScans, after.FederatedScans)
	}
	if after.ShardsPruned <= before.ShardsPruned {
		t.Fatalf("no partition pruning happened (pruned %d -> %d)", before.ShardsPruned, after.ShardsPruned)
	}
}

// TestFederatedSmoke is the quick ci gate: the federation resolves, prunes,
// streams, attributes scans per source, and EXPLAIN names the backends.
func TestFederatedSmoke(t *testing.T) {
	p := federatedPlatform(t, demo.DefaultFederatedSizes, false)

	rows, err := p.Query("SELECT ORDERID, ITEM FROM ORDERS WHERE ACCOUNTID = ? ORDER BY ORDERID", 103)
	if err != nil {
		t.Fatalf("pinned query: %v", err)
	}
	if err := rows.Materialize(); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if rows.Len() == 0 {
		t.Fatalf("pinned query returned no rows")
	}

	// Cross-source join through the driver, plus EXPLAIN's source line.
	p.RegisterDriver("federated-smoke")
	db, err := sql.Open("aqualogic", "federated-smoke")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	var n int
	if err := db.QueryRow("SELECT COUNT(*) FROM ACCOUNTS A, INVOICES I WHERE A.ACCOUNTID = I.ACCOUNTID").Scan(&n); err != nil {
		t.Fatalf("cross-source join: %v", err)
	}
	if n == 0 {
		t.Fatalf("cross-source join matched no rows")
	}
	var explain []string
	er, err := db.Query("EXPLAIN SELECT A.NAME, I.AMOUNT FROM ACCOUNTS A, INVOICES I WHERE A.ACCOUNTID = I.ACCOUNTID")
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	for er.Next() {
		var line string
		if err := er.Scan(&line); err != nil {
			t.Fatalf("scan: %v", err)
		}
		explain = append(explain, line)
	}
	er.Close()
	joined := strings.Join(explain, "\n")
	if !strings.Contains(joined, "-- sources: TestApp, billing") {
		t.Fatalf("EXPLAIN missing source attribution:\n%s", joined)
	}

	if got := p.SourceNames(); len(got) != 3 || got[0] != "TestApp" || got[1] != "billing" || got[2] != "files" {
		t.Fatalf("SourceNames = %v", got)
	}
	health := p.FederationStats()
	if len(health) != 3 {
		t.Fatalf("FederationStats reported %d sources", len(health))
	}
	if s := p.Stats(); len(s.SourceScans) == 0 {
		t.Fatalf("no per-source scan attribution recorded")
	}
}

// TestFederatedAmbiguity pins the cross-source collision contract: RATES
// exists in billing and files, so the unqualified name names both sources
// in a typed error, while a source-qualified reference resolves.
func TestFederatedAmbiguity(t *testing.T) {
	p := federatedPlatform(t, demo.DefaultFederatedSizes, false)

	_, err := p.CompileContext(context.Background(), "SELECT * FROM RATES", ModeXML)
	if err == nil {
		t.Fatalf("unqualified RATES must be ambiguous")
	}
	if !strings.Contains(err.Error(), "ambiguous across sources billing, files") {
		t.Fatalf("ambiguity must name the sources, got: %v", err)
	}

	cq, err := p.CompileContext(context.Background(), "SELECT CURRENCY FROM billing.RATES.RATES ORDER BY CURRENCY", ModeXML)
	if err != nil {
		t.Fatalf("source-qualified RATES must resolve: %v", err)
	}
	if len(cq.Res.Sources) != 1 || cq.Res.Sources[0] != "billing" {
		t.Fatalf("qualified lookup attributed to %v", cq.Res.Sources)
	}

	// Listings name each table's source, deterministically ordered by
	// backend registration then schema/table.
	tables, err := p.Metadata().Tables()
	if err != nil {
		t.Fatalf("Tables: %v", err)
	}
	var order []string
	for _, tm := range tables {
		if tm.Source == "" {
			t.Fatalf("table %s missing source attribution", tm.Function.Name)
		}
		order = append(order, tm.Source+":"+tm.Function.Name)
	}
	want := []string{
		"TestApp:ACCOUNTS", "TestApp:ORDERS",
		"billing:INVOICES", "billing:RATES",
		"files:RATES", "files:REGIONS",
	}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Fatalf("listing order = %v, want %v", order, want)
	}
}

// TestFederatedShowStatements: database/sql's metadata browsing names each
// table's own source as its catalog, so billing's and files' RATES can be
// told apart, and SHOW CATALOGS lists every source once.
func TestFederatedShowStatements(t *testing.T) {
	p := federatedPlatform(t, demo.DefaultFederatedSizes, false)
	p.RegisterDriver("federated-show")
	db := openSQL(t, "federated-show")
	show := func(stmt string) []string {
		t.Helper()
		rows, err := db.Query(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		defer rows.Close()
		cols, _ := rows.Columns()
		vals := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		var out []string
		for rows.Next() {
			if err := rows.Scan(ptrs...); err != nil {
				t.Fatal(err)
			}
			out = append(out, strings.Trim(fmt.Sprintln(vals...), "\n"))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got, want := show("SHOW CATALOGS"), []string{"TestApp", "billing", "files"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SHOW CATALOGS = %q, want %q", got, want)
	}
	var tables []string
	for _, row := range show("SHOW TABLES") {
		f := strings.Fields(row) // catalog, schema, name, type
		tables = append(tables, f[0]+":"+f[2])
	}
	want := []string{
		"TestApp:ACCOUNTS", "TestApp:ORDERS",
		"billing:INVOICES", "billing:RATES",
		"files:RATES", "files:REGIONS",
	}
	if !reflect.DeepEqual(tables, want) {
		t.Fatalf("SHOW TABLES catalogs = %q, want %q", tables, want)
	}
	var schemaCats []string
	for _, row := range show("SHOW SCHEMAS") {
		schemaCats = append(schemaCats, strings.Fields(row)[1])
	}
	if got := strings.Join(schemaCats, " "); !strings.Contains(got, "billing") || !strings.Contains(got, "files") {
		t.Fatalf("SHOW SCHEMAS catalogs = %q, want the billing and files sources", got)
	}
}

// TestFederatedCacheIsolation proves one backend's invalidation retires
// only the compiled artifacts that touched it.
func TestFederatedCacheIsolation(t *testing.T) {
	p := federatedPlatform(t, demo.DefaultFederatedSizes, false)

	ordersQ := "SELECT ORDERID FROM ORDERS WHERE QTY > 5"
	invoicesQ := "SELECT INVOICEID FROM INVOICES WHERE AMOUNT > 50"
	for _, q := range []string{ordersQ, invoicesQ} {
		if _, err := p.CompileContext(context.Background(), q, ModeXML); err != nil {
			t.Fatalf("compile %q: %v", q, err)
		}
	}

	p.InvalidateSourceMetadata("billing")

	base := p.CompileStats()
	if _, err := p.CompileContext(context.Background(), ordersQ, ModeXML); err != nil {
		t.Fatalf("recompile %q: %v", ordersQ, err)
	}
	s := p.CompileStats()
	if s.Hits != base.Hits+1 {
		t.Fatalf("central-only artifact churned by billing invalidation: %+v -> %+v", base, s)
	}
	if _, err := p.CompileContext(context.Background(), invoicesQ, ModeXML); err != nil {
		t.Fatalf("recompile %q: %v", invoicesQ, err)
	}
	s = p.CompileStats()
	if s.SourceRetirements != base.SourceRetirements+1 || s.Misses != base.Misses+1 {
		t.Fatalf("billing artifact must retire and recompile: %+v -> %+v", base, s)
	}
}

// TestFederatedPartitionPruning asserts the shard-pinned path calls only
// the shard the key can live on.
func TestFederatedPartitionPruning(t *testing.T) {
	p := federatedPlatform(t, demo.DefaultFederatedSizes, false)
	shards := len(demo.FederatedSetup(demo.DefaultFederatedSizes, false).Spec.Shards)

	cq, err := p.CompileContext(context.Background(), "SELECT ORDERID FROM ORDERS WHERE ACCOUNTID = 104", ModeXML)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	before := p.Stats()
	if _, err := p.Engine.EvalPlanWithTrace(context.Background(), cq.Plan, nil, nil); err != nil {
		t.Fatalf("eval: %v", err)
	}
	after := p.Stats()
	if got := after.ShardScans - before.ShardScans; got != 1 {
		t.Fatalf("pinned query called %d shards, want 1", got)
	}
	if got := after.ShardsPruned - before.ShardsPruned; got != int64(shards-1) {
		t.Fatalf("pruned %d shards, want %d", got, shards-1)
	}
}

// FuzzFederatedDifferential fuzzes SQL against both deployments: any
// statement both accept and both evaluate cleanly must produce identical
// bytes in both result modes.
func FuzzFederatedDifferential(f *testing.F) {
	for _, s := range federatedCorpus() {
		f.Add(s)
	}
	sz := demo.FederatedSizes{Accounts: 8, Invoices: 12, Orders: 20, Shards: 3}
	fed := federatedPlatform(f, sz, false)
	xqeval.ForceFanOutForTest(fed.Engine, 8, 4, 2)
	ora := oraclePlatform(sz)
	// The federated side must really fan out, or the fuzzer compares
	// serial against serial.
	morsels := fed.Stats().MorselsProcessed
	for _, q := range federatedCorpus() {
		cq, err := fed.CompileContext(context.Background(), q, ModeText)
		if err != nil {
			f.Fatalf("federated compile %q: %v", q, err)
		}
		if _, err := fed.Engine.EvalPlanWithTrace(context.Background(), cq.Plan, federatedBindings(cq.Res), nil); err != nil {
			f.Fatalf("federated eval %q: %v", q, err)
		}
	}
	if got := fed.Stats().MorselsProcessed; got == morsels {
		f.Fatalf("no scan fanned out (morsels %d -> %d)", morsels, got)
	}

	f.Fuzz(func(t *testing.T, sqlText string) {
		for _, mode := range []ResultMode{ModeXML, ModeText} {
			fcq, ferr := fed.CompileContext(context.Background(), sqlText, mode)
			ocq, oerr := ora.CompileContext(context.Background(), sqlText, mode)
			if ferr != nil || oerr != nil {
				// Resolution can legitimately differ (RATES is ambiguous only
				// in the federation); value divergence on doubly-accepted
				// statements is what this fuzzer hunts.
				continue
			}
			if strings.Contains(fcq.XQuery(), "fn:current-") {
				continue // nondeterministic between evaluations
			}
			ext := federatedBindings(fcq.Res)
			got, gerr := fed.Engine.EvalPlanWithTrace(context.Background(), fcq.Plan, ext, nil)
			want, werr := ora.Engine.EvalPlanWithTrace(context.Background(), ocq.Plan, ext, nil)
			if gerr != nil || werr != nil {
				// Dynamic error timing is not part of the contract (XQuery
				// §2.3.4): pruning may skip a shard whose rows would have
				// raised a comparison error.
				continue
			}
			if g, w := xdm.MarshalSequence(got), xdm.MarshalSequence(want); g != w {
				t.Fatalf("mode %v: %q diverged\nfederated: %s\noracle:    %s", mode, sqlText, g, w)
			}
		}
	})
}
