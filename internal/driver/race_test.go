package driver_test

import (
	"sync"
	"testing"
)

// TestConcurrentMixedQueries drives one *sql.DB from many goroutines
// with a rotating workload. The pool hands out multiple driver
// connections and reuses prepared statements across goroutines, so this
// exercises conn, stmt, and the platform's shared compile and catalog
// caches under -race.
func TestConcurrentMixedQueries(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		queries := []string{
			"SELECT CUSTOMERID FROM CUSTOMERS",
			"SELECT CUSTOMERNAME, CITY FROM CUSTOMERS WHERE CUSTOMERID < 1025",
			"SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID",
			"SELECT COUNT(*) FROM PO_ITEMS",
		}

		const goroutines = 12
		const iters = 8
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					q := queries[(g+i)%len(queries)]
					rows, err := db.Query(q)
					if err != nil {
						t.Errorf("query %q: %v", q, err)
						return
					}
					n := 0
					for rows.Next() {
						n++
					}
					if err := rows.Err(); err != nil {
						t.Errorf("rows %q: %v", q, err)
					}
					rows.Close()
					if n == 0 {
						t.Errorf("query %q returned no rows", q)
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestConcurrentSharedStmt reuses a single prepared statement from many
// goroutines — database/sql explicitly allows this, so the driver's Stmt
// (including the cached XQuery text and trace hooks) must be re-entrant.
func TestConcurrentSharedStmt(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		stmt, err := db.Prepare("SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?")
		if err != nil {
			t.Fatal(err)
		}
		defer stmt.Close()

		var wg sync.WaitGroup
		for g := 0; g < 10; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 1; i <= 10; i++ {
					var name string
					if err := stmt.QueryRow(1000 + (g*10+i)%50).Scan(&name); err != nil {
						t.Errorf("exec: %v", err)
						return
					}
					if name == "" {
						t.Errorf("empty customer name")
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestConcurrentStats interleaves EXPLAIN traffic on several connections
// with compile-cache snapshots, the platform-wide counters every
// connection shares.
func TestConcurrentStats(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db, p := e.open(""), e.p
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					rows, err := db.Query("EXPLAIN SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID > 5")
					if err != nil {
						t.Errorf("explain: %v", err)
						return
					}
					for rows.Next() {
					}
					rows.Close()
				}
			}()
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if s := p.CompileStats(); s.Misses > 1 {
						t.Errorf("one statement compiled %d times", s.Misses)
						return
					}
				}
			}()
		}
		wg.Wait()
		if s := p.CompileStats(); s.Misses != 1 || s.Hits+s.Shared != 39 {
			t.Fatalf("40 EXPLAINs of one statement: %+v, want 1 miss and 39 reuses", s)
		}
	})
}

// TestConcurrentPrepareStampede races many pool connections preparing the
// same cold statement: the platform's compile cache must single-flight the
// compile — exactly one translation however many connections collide —
// and every statement must still execute correctly. Over the wire too:
// the server executes the statement it prepared, resolving nothing more.
func TestConcurrentPrepareStampede(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db, p := e.open(""), e.p
		db.SetMaxOpenConns(16)

		const goroutines = 16
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				var n int64
				if err := db.QueryRow("SELECT COUNT(*) FROM CUSTOMERS").Scan(&n); err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if n == 0 {
					t.Error("no rows")
				}
			}()
		}
		close(start)
		wg.Wait()

		reuses := int64(goroutines - 1)
		if s := p.CompileStats(); s.Misses != 1 || s.Hits+s.Shared != reuses {
			t.Fatalf("stampede: %+v, want 1 compile and %d reuses", s, reuses)
		}
	})
}
