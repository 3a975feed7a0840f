// Conformance net for the path-template front end: the proof that the
// translation kernel is front-end agnostic. Every path statement lowers
// onto the same typed AST the SQL front end produces, so its canonical
// rendering (SelectStmt.SQL()) is the differential oracle — a path query
// and its rendered SQL-92 equivalent must produce byte-identical rows
// through the full pipeline, in both result modes, in process and over
// the wire. The golden corpus pins the generated XQuery and plan per
// statement; compile caching, streaming delivery, and EXPLAIN are
// asserted to be inherited, not reimplemented.
package aqualogic

import (
	"context"
	"database/sql"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/aqerr"
	"repro/internal/pathfront"
	"repro/internal/server"
)

var updatePathGolden = flag.Bool("update-path", false, "rewrite the path front-end golden files")

// pathCorpus covers every clause of the path-template grammar; the names
// key the golden files under testdata/path.
var pathCorpus = []struct {
	name string
	src  string
}{
	{"single_node", "match (c:CUSTOMERS) return c.CUSTOMERID, c.CUSTOMERNAME"},
	{"node_wildcard", "match (c:CUSTOMERS) return c"},
	{"star", "match (c:CUSTOMERS) return *"},
	{"edge_join", "match (c:CUSTOMERS)-[CUSTOMERID = CUSTID]->(p:PAYMENTS) return c.CUSTOMERNAME, p.PAYMENT"},
	{"chain", "match (a:CUSTOMERS)-[CUSTOMERID = CUSTID]->(b:PAYMENTS)-[b.CUSTID = d.CUSTID]->(d:PAYMENTS) return a.CUSTOMERNAME, d.PAYMENT"},
	{"filter_order_take", "match (c:CUSTOMERS)-[CUSTOMERID = CUSTID]->(p:PAYMENTS) where p.PAYMENT > 100 return c.CUSTOMERNAME, p.PAYMENT order by p.PAYMENT desc, c.CUSTOMERNAME take 5"},
	{"distinct_null_check", "match (c:CUSTOMERS) where c.CITY is not null return distinct c.CITY order by c.CITY desc"},
	{"params", "match (c:CUSTOMERS) where c.CUSTOMERID = ? return c.CUSTOMERNAME"},
	{"arithmetic", "match (p:PAYMENTS) return p.PAYMENT * 2 as DOUBLED, p.CUSTID order by 1 desc, 2 take 4"},
	{"boolean_mix", "match (c:CUSTOMERS) where c.CITY = 'Springfield' or not c.CUSTOMERID >= 1010 return c.CUSTOMERID, c.CITY"},
}

// TestPathGolden pins each corpus statement's compiled artifact — dialect,
// evaluator plan, and generated XQuery — to a golden file. Run with
// -update-path to regenerate after an intentional change.
func TestPathGolden(t *testing.T) {
	p := Demo()
	for _, tc := range pathCorpus {
		t.Run(tc.name, func(t *testing.T) {
			cq, err := p.CompileDialect(context.Background(), DialectPath, tc.src, ModeXML)
			if err != nil {
				t.Fatalf("compile %q: %v", tc.src, err)
			}
			stmt, err := pathfront.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			b.WriteString("-- dialect: " + string(cq.Dialect) + "\n")
			b.WriteString("-- lowered SQL: " + stmt.SQL() + "\n")
			b.WriteString("-- plan:\n")
			for _, line := range cq.Plan.Describe() {
				b.WriteString("--   " + line + "\n")
			}
			b.WriteString(cq.XQuery())
			got := b.String()

			path := filepath.Join("testdata", "path", tc.name+".golden")
			if *updatePathGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-path): %v", err)
			}
			if got != string(want) {
				t.Errorf("compiled artifact changed for %q\n--- got ---\n%s\n--- want ---\n%s", tc.src, got, want)
			}
		})
	}
}

// TestPathMatchesSQLFrontend is the cross-front-end differential net: a
// path statement and its lowered SQL-92 rendering must produce
// byte-identical rows, in both result modes — the two front ends meet on
// one AST and everything downstream is shared.
func TestPathMatchesSQLFrontend(t *testing.T) {
	p := Demo()
	for _, tc := range pathCorpus {
		stmt, err := pathfront.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sqlText := stmt.SQL()
		args := chaosArgs(stmt.ParamCount)
		for _, mode := range []ResultMode{ModeXML, ModeText} {
			viaSQL, err := p.QueryStreamMode(context.Background(), mode, sqlText, args...)
			if err != nil {
				t.Fatalf("%s: mode %v: lowered SQL %q: %v", tc.name, mode, sqlText, err)
			}
			want := marshalRows(viaSQL)
			viaPath, err := p.QueryDialect(context.Background(), DialectPath, mode, tc.src, args...)
			if err != nil {
				t.Fatalf("%s: mode %v: path: %v", tc.name, mode, err)
			}
			got, err := marshalStreamed(viaPath)
			viaPath.Close()
			if err != nil {
				t.Fatalf("%s: mode %v: path iteration: %v", tc.name, mode, err)
			}
			if got != want {
				t.Fatalf("%s: mode %v: path rows diverged from SQL\npath: %s\nsql:  %s", tc.name, mode, got, want)
			}
		}
	}
}

// TestPathCompileCachedAndStreams asserts the path front end inherits the
// compile cache and the streaming cursor: the second run of a path query
// is a cache hit on an artifact recording the path dialect, and rows
// arrive through the pull cursor before the result is materialized.
func TestPathCompileCachedAndStreams(t *testing.T) {
	p := Demo()
	const q = "match (c:CUSTOMERS)-[CUSTOMERID = CUSTID]->(p:PAYMENTS) return c.CUSTOMERNAME, p.PAYMENT"

	cq, err := p.CompileDialect(context.Background(), DialectPath, q, ModeText)
	if err != nil {
		t.Fatal(err)
	}
	if cq.Dialect != DialectPath {
		t.Fatalf("artifact records dialect %q, want %q", cq.Dialect, DialectPath)
	}
	before := p.CompileStats()
	again, err := p.CompileDialect(context.Background(), DialectPath, "match  (c:customers)-[customerid = custid]->(p:payments)  return c.CUSTOMERNAME, p.PAYMENT", ModeText)
	if err != nil {
		t.Fatal(err)
	}
	after := p.CompileStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("re-spelled path query missed the cache: %+v -> %+v", before, after)
	}
	if again != cq {
		t.Fatal("cache hit returned a different artifact")
	}

	rows, err := p.QueryDialect(context.Background(), DialectPath, ModeText, q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
		if n == 3 {
			break // streaming: consuming a prefix must not require the full result
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("streamed %d rows, want a 3-row prefix", n)
	}
}

// TestPathExplainThroughDriver drives EXPLAIN of a path statement through
// database/sql over a dialect=path DSN: the rendered artifact carries the
// dialect header and every inherited section (stage trace with the path
// front end's own lex/parse spans, contexts, XQuery, plan).
func TestPathExplainThroughDriver(t *testing.T) {
	p := Demo()
	p.RegisterDriver("pathexplain")
	db, err := sql.Open("aqualogic", "pathexplain?dialect=path")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rows, err := db.Query("EXPLAIN match (c:CUSTOMERS)-[CUSTOMERID = CUSTID]->(p:PAYMENTS) where p.PAYMENT > 100 return c.CUSTOMERNAME")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out strings.Builder
	for rows.Next() {
		var line string
		if err := rows.Scan(&line); err != nil {
			t.Fatal(err)
		}
		out.WriteString(line + "\n")
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"-- dialect: path",
		"-- stage trace:",
		"lex",
		"parse",
		"-- query contexts (stage one):",
		"-- generated XQuery (stage three):",
		"-- query plan (evaluator):",
		"hash join",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("path EXPLAIN missing %q:\n%s", want, text)
		}
	}
}

// TestServedPathMatchesInProcess extends the wire conformance net across
// dialects: path statements prepared and executed over the wire — with a
// small fetch chunk, so results stream across multiple fetches — must
// deliver byte-identical rows to the in-process oracle, and failing path
// statements must surface the same typed-error kind on both sides.
func TestServedPathMatchesInProcess(t *testing.T) {
	p, _, c := newLoopback(t, server.Config{FetchRows: 3, SessionIdleTimeout: time.Minute})
	for _, mode := range []ResultMode{ModeXML, ModeText} {
		for _, tc := range pathCorpus {
			stmt, err := pathfront.Parse(tc.src)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			args := chaosArgs(stmt.ParamCount)
			local, err := p.QueryDialect(context.Background(), DialectPath, mode, tc.src, args...)
			if err != nil {
				t.Fatalf("%s: mode %v: in-process: %v", tc.name, mode, err)
			}
			want := marshalRows(local)

			// Prepared over the wire: the dialect travels with the prepare
			// and is pinned in the session's statement table.
			pstmt, err := c.PrepareDialect(context.Background(), string(DialectPath), tc.src, mode)
			if err != nil {
				t.Fatalf("%s: mode %v: remote prepare: %v", tc.name, mode, err)
			}
			if pstmt.ParamCount() != stmt.ParamCount {
				t.Fatalf("%s: remote prepare reports %d params, want %d", tc.name, pstmt.ParamCount(), stmt.ParamCount)
			}
			remote, err := pstmt.Execute(context.Background(), args...)
			if err != nil {
				t.Fatalf("%s: mode %v: remote execute: %v", tc.name, mode, err)
			}
			got, err := drainClose(remote)
			if err != nil {
				t.Fatalf("%s: mode %v: remote iteration: %v", tc.name, mode, err)
			}
			if got != want {
				t.Fatalf("%s: mode %v: served path rows diverged from in-process\ngot:  %s\nwant: %s",
					tc.name, mode, got, want)
			}

			// Ad-hoc execute with an explicit dialect takes the same path.
			adhoc, err := c.QueryDialect(context.Background(), string(DialectPath), mode, tc.src, args...)
			if err != nil {
				t.Fatalf("%s: mode %v: remote ad-hoc: %v", tc.name, mode, err)
			}
			if got, err = drainClose(adhoc); err != nil {
				t.Fatalf("%s: mode %v: remote ad-hoc iteration: %v", tc.name, mode, err)
			}
			if got != want {
				t.Fatalf("%s: mode %v: ad-hoc served path rows diverged\ngot:  %s\nwant: %s", tc.name, mode, got, want)
			}
		}
	}

	// Failing path statements: the typed-error kind must survive the wire.
	failing := []string{
		"match (c:CUSTOMERS) return",              // syntax error
		"match (c:NO_SUCH_TABLE) return c",        // unknown table
		"match (c:CUSTOMERS), (c:PAYMENTS) match", // rebound binder
	}
	for _, src := range failing {
		_, lerr := p.QueryDialect(context.Background(), DialectPath, ModeText, src)
		_, rerr := c.QueryDialect(context.Background(), string(DialectPath), ModeText, src)
		if lerr == nil || rerr == nil {
			t.Fatalf("%q: expected both paths to fail (local=%v remote=%v)", src, lerr, rerr)
		}
		if lk, rk := errKindName(lerr), errKindName(rerr); lk != rk {
			t.Fatalf("%q: error kind diverged: in-process %s, served %s (%v vs %v)", src, lk, rk, lerr, rerr)
		}
	}

	// An unregistered dialect is a typed permanent error at the server.
	if _, err := c.QueryDialect(context.Background(), "sparql", ModeText, "whatever"); errKindName(err) != aqerr.KindPermanent.String() {
		t.Fatalf("unknown dialect over the wire: got %v, want a permanent-kind error", err)
	}
}
