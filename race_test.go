package aqualogic

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/remoteclient"
	"repro/internal/server"
)

// TestPlatformConcurrentUse exercises the facade from many goroutines:
// Translate, Query, Explain, MetadataStats and DefineView all share the
// platform's lazily-built metadata cache, so this pins the guarded
// initialization path under -race.
func TestPlatformConcurrentUse(t *testing.T) {
	p := Demo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, err := p.Translate("SELECT CUSTOMERID FROM CUSTOMERS", ModeXML); err != nil {
						t.Errorf("translate: %v", err)
						return
					}
				case 1:
					rows, err := p.Query("SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID < 1010")
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					if rows.Len() == 0 {
						t.Error("query returned no rows")
						return
					}
				case 2:
					if lines, err := p.Explain(context.Background(), "SELECT COUNT(*) FROM PAYMENTS", ModeXML); err != nil || len(lines) == 0 {
						t.Errorf("explain: %v", err)
						return
					}
				case 3:
					_ = p.MetadataStats()
				}
			}
		}(g)
	}
	wg.Wait()

	stats := p.MetadataStats()
	if stats.Hits+stats.Misses == 0 {
		t.Fatal("no cache traffic recorded")
	}
}

// TestConcurrentRenderOfCachedStatement races every reader of one cached
// statement's query text: EXPLAIN renders it from the shared artifact,
// Translate from a fresh translation, and executions run the same
// artifact's plan. The artifact keeps no text, so each rendering is its
// own; all must agree, and EXPLAIN must never write the shared trace.
func TestConcurrentRenderOfCachedStatement(t *testing.T) {
	p := Demo()
	const sql = "SELECT CITY, COUNT(*) FROM CUSTOMERS WHERE CUSTOMERID < 1020 GROUP BY CITY"
	cq, err := p.CompileContext(context.Background(), sql, ModeXML)
	if err != nil {
		t.Fatal(err)
	}
	want := cq.XQuery()
	spans := len(cq.Trace.Stages())
	var wg sync.WaitGroup
	var explains atomic.Int64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 3 {
				case 0:
					explains.Add(1)
					hit, err := p.CompileContext(context.Background(), sql, ModeXML)
					if err != nil || hit != cq {
						t.Errorf("compile: %v (cached artifact reused: %v)", err, hit == cq)
						return
					}
					if text := strings.Join(hit.Explain(), "\n"); !strings.Contains(text, want) {
						t.Errorf("EXPLAIN lacks the generated XQuery:\n%s", text)
						return
					}
				case 1:
					res, err := p.Translate(sql, ModeXML)
					if err != nil || res.XQuery() != want {
						t.Errorf("Translate: %v (same text as the artifact: %v)", err, err == nil && res.XQuery() == want)
						return
					}
				case 2:
					rows, err := p.QueryStreamMode(context.Background(), ModeXML, sql)
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					if rows.Len() == 0 {
						t.Error("query returned no rows")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(cq.Trace.Stages()); got != spans {
		t.Fatalf("the shared compile trace grew from %d to %d spans", spans, got)
	}
	if n := stageCount(p, "serialize"); n != explains.Load() {
		t.Fatalf("serialize histogram = %d, want one per EXPLAIN (%d)", n, explains.Load())
	}
}

// TestConcurrentPreparedAcrossViewChurn races one prepared statement's
// executions against CREATE VIEW in another session, on both sides of the
// wire: an in-process statement and a served one, each executed from
// several goroutines, while a second wire session defines views. Every
// view retires the statements' artifacts, and whichever execution finds
// its artifact stale swaps in the recompiled one; every execution must
// answer as the first did.
func TestConcurrentPreparedAcrossViewChurn(t *testing.T) {
	p, srv, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	other, err := remoteclient.Loopback(srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	ctx := context.Background()
	const q = "SELECT CUSTOMERNAME, CITY FROM CUSTOMERS WHERE CUSTOMERID = ?"
	local, err := p.Prepare(ctx, q, ModeText)
	if err != nil {
		t.Fatal(err)
	}
	served, err := c.Prepare(ctx, q, ModeText)
	if err != nil {
		t.Fatal(err)
	}
	first, err := local.Execute(ctx, 1005)
	if err != nil {
		t.Fatal(err)
	}
	want, err := drainClose(first)
	if err != nil {
		t.Fatal(err)
	}
	misses := p.CompileStats().Misses

	type executor interface {
		Execute(context.Context, ...any) (*Rows, error)
	}
	stmts := []executor{local, served}
	check := func(st executor) bool {
		rows, err := st.Execute(ctx, 1005)
		if err != nil {
			t.Errorf("execute: %v", err)
			return false
		}
		if got, err := drainClose(rows); err != nil || got != want {
			t.Errorf("execute: %q, %v; want %q", got, err, want)
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	for _, st := range stmts {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if !check(st) {
						return
					}
				}
			}()
		}
	}
	for v := 0; v < 6; v++ {
		if err := other.DefineView(ctx, "Views", fmt.Sprintf("V_CHURN_%d", v), "SELECT CUSTOMERID FROM CUSTOMERS"); err != nil {
			t.Errorf("create view %d: %v", v, err)
		}
	}
	wg.Wait()
	// Past the last view, each statement recompiles once more at most.
	for _, st := range stmts {
		check(st)
	}
	if got := p.CompileStats().Misses; got <= misses {
		t.Fatalf("no execution recompiled across 6 views (misses %d -> %d)", misses, got)
	}
}

// TestPlatformConcurrentViews races DefineView (which invalidates the
// metadata cache) against queries that repopulate it.
func TestPlatformConcurrentViews(t *testing.T) {
	p := Demo()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("V_%d_%d", g, i)
				if err := p.DefineView("Views", name, "SELECT CUSTOMERID, CITY FROM CUSTOMERS"); err != nil {
					t.Errorf("define view: %v", err)
					return
				}
				rows, err := p.Query("SELECT CITY FROM " + name + " WHERE CUSTOMERID = 1000")
				if err != nil {
					t.Errorf("query view: %v", err)
					return
				}
				if rows.Len() != 1 {
					t.Errorf("view %s: %d rows", name, rows.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServeConcurrentSessions hammers the network front end from many
// loopback clients at once — prepare/execute/fetch/close interleaved with
// mid-stream disconnects (a cursor abandoned after one row and closed out
// of band) and metadata browsing — under -race. Afterward the server must
// hold no open cursors, no in-flight admissions, and no extra goroutines:
// the leak contract for a server facing thousands of flaky clients.
func TestServeConcurrentSessions(t *testing.T) {
	p := Demo()
	srv := server.New(p, server.Config{
		FetchRows:            3,
		MaxConcurrentQueries: 8,
		AdmissionWait:        5 * time.Second, // queue briefly instead of shedding
		SessionIdleTimeout:   time.Minute,
	})
	h := srv.Handler()
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := remoteclient.Loopback(h)
			if err != nil {
				t.Errorf("worker %d: handshake: %v", g, err)
				return
			}
			st, err := c.Prepare(context.Background(), "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID = ?", ModeText)
			if err != nil {
				t.Errorf("worker %d: prepare: %v", g, err)
				return
			}
			for i := 0; i < 8; i++ {
				switch (g + i) % 3 {
				case 0: // full drain of a prepared execution
					rows, err := st.Execute(context.Background(), 1000+(g+i)%50)
					if err != nil {
						t.Errorf("worker %d: execute: %v", g, err)
						return
					}
					if _, err := marshalStreamed(rows); err != nil {
						t.Errorf("worker %d: drain: %v", g, err)
						return
					}
					rows.Close()
				case 1: // mid-stream disconnect: one row, then walk away
					rows, err := c.Query(context.Background(), ModeXML,
						"SELECT C.CUSTOMERID FROM CUSTOMERS C, PAYMENTS P")
					if err != nil {
						t.Errorf("worker %d: big execute: %v", g, err)
						return
					}
					if !rows.Next() {
						t.Errorf("worker %d: no first row: %v", g, rows.Err())
						return
					}
					rows.Close() // cancels the server-side evaluation
				case 2: // metadata browse
					if _, err := c.Lookup(catalog.TableRef{Table: "CUSTOMERS"}); err != nil {
						t.Errorf("worker %d: lookup: %v", g, err)
						return
					}
				}
			}
			// A third of the workers abandon their session without closing
			// it (their cursors are already closed; the session itself is
			// cheap and reaped later).
			if g%3 != 0 {
				if err := c.Close(); err != nil {
					t.Errorf("worker %d: close: %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()

	if st := srv.Stats(); st.CursorsOpen != 0 || st.QueriesInFlight != 0 {
		t.Fatalf("server holds state after all clients finished: %+v", st)
	}
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
