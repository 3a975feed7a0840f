// Streaming behavior at the driver boundary: rows from a still-running
// evaluation, early termination through Close, and statement reuse while
// streams are in flight.
package driver_test

import (
	"context"
	sqldriver "database/sql/driver"
	"io"
	"sync"
	"testing"

	aqualogic "repro"
	"repro/internal/demo"
	"repro/internal/obsv"
)

// rawStmt opens a customers-only platform, prepares query on one raw
// driver connection, and hands the driver statement to fn, bypassing
// database/sql so the test can drive driver.Rows directly.
func rawStmt(t *testing.T, customers int, query string, fn func(*aqualogic.Platform, sqldriver.Stmt)) {
	t.Helper()
	app, _, engine := demo.Setup(demo.Sizes{Customers: customers, PaymentsPerCustomer: 0, Orders: 1, ItemsPerOrder: 1})
	p := aqualogic.New(app, engine)
	db := open(t, register(p))
	conn, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Raw(func(dc any) error {
		st, err := dc.(sqldriver.ConnPrepareContext).PrepareContext(context.Background(), query)
		if err != nil {
			return err
		}
		fn(p, st)
		return st.Close()
	}); err != nil {
		t.Fatal(err)
	}
}

// evalStepsDelta runs fn and reports how many evaluator steps p spent
// inside it.
func evalStepsDelta(p *aqualogic.Platform, fn func()) int64 {
	before := p.Stats().EvalSteps
	fn()
	return p.Stats().EvalSteps - before
}

// TestClosedRowsCancelEvaluation is the early-termination regression: a
// result set abandoned after a few rows must cancel the evaluation, not
// let it run to completion behind the scenes. The pin is self-calibrating:
// the same statement drained fully fixes the full-evaluation step cost,
// and the abandoned run must spend a small fraction of it.
func TestClosedRowsCancelEvaluation(t *testing.T) {
	// Cross join: 490 000 tuples if run to completion.
	rawStmt(t, 700, "SELECT A.CUSTOMERID FROM CUSTOMERS A, CUSTOMERS B", func(p *aqualogic.Platform, s sqldriver.Stmt) {
		closedRowsCancelEvaluation(t, p, s)
	})
}

func closedRowsCancelEvaluation(t *testing.T, p *aqualogic.Platform, s sqldriver.Stmt) {
	dest := make([]sqldriver.Value, 1)

	fullSteps := evalStepsDelta(p, func() {
		rows, err := s.Query(nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if err := rows.Next(dest); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	})

	var rows sqldriver.Rows
	closedSteps := evalStepsDelta(p, func() {
		var err error
		rows, err = s.Query(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := rows.Next(dest); err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
		}
		// Close cancels the evaluation context and waits for the producer
		// to exit, so the step counter has folded when it returns.
		if err := rows.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})

	if closedSteps*10 > fullSteps {
		t.Fatalf("abandoned stream spent %d evaluator steps; full evaluation costs %d — Close did not cancel",
			closedSteps, fullSteps)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
	if err := rows.Next(dest); err != io.EOF {
		t.Fatalf("Next after Close = %v, want io.EOF", err)
	}
}

// TestRowsCloseReleasesOnce: repeated Close calls on a live stream are
// safe, end the decode stage exactly once, and leave the statement
// reusable. A facade Rows closed three times ends it once too.
func TestRowsCloseReleasesOnce(t *testing.T) {
	rawStmt(t, 50, "SELECT CUSTOMERID FROM CUSTOMERS", func(p *aqualogic.Platform, s sqldriver.Stmt) {
		decodes := func() int64 {
			for _, st := range p.Stats().Stages {
				if st.Stage == obsv.StageDecode.String() {
					return st.Count
				}
			}
			return 0
		}
		for round := 0; round < 3; round++ {
			rows, err := s.Query(nil)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			dest := make([]sqldriver.Value, 1)
			for i := 0; i < 2; i++ {
				if err := rows.Next(dest); err != nil {
					t.Fatalf("round %d row %d: %v", round, i, err)
				}
			}
			before := decodes()
			for i := 0; i < 3; i++ {
				if err := rows.Close(); err != nil {
					t.Fatalf("round %d close %d: %v", round, i, err)
				}
			}
			if got := decodes() - before; got != 1 {
				t.Fatalf("round %d: 3 Closes ended %d decode stages, want 1 (exactly once)", round, got)
			}
		}

		rows, err := p.Query("SELECT CUSTOMERID FROM CUSTOMERS")
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() || !rows.Next() {
			t.Fatalf("facade rows: %v", rows.Err())
		}
		before := decodes()
		for i := 0; i < 3; i++ {
			rows.Close()
		}
		if got := decodes() - before; got != 1 {
			t.Fatalf("facade: 3 Closes ended %d decode stages, want 1 (exactly once)", got)
		}
	})
}

// TestStreamingStatementReuseRace hammers one prepared statement from
// several goroutines, each opening a stream, reading a prefix, and
// abandoning it — the reuse pattern connection pools produce — while
// others drain theirs fully. Run under -race this pins the cursor
// hand-off between statement, rows, and evaluation goroutine.
func TestStreamingStatementReuseRace(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		stmt, err := db.Prepare("SELECT P.PAYMENT, C.CUSTOMERNAME FROM PAYMENTS P, CUSTOMERS C WHERE P.CUSTID = C.CUSTOMERID")
		if err != nil {
			t.Fatal(err)
		}
		defer stmt.Close()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 5; round++ {
					rows, err := stmt.Query()
					if err != nil {
						t.Errorf("goroutine %d round %d: %v", g, round, err)
						return
					}
					limit := -1 // drain fully
					if g%2 == 0 {
						limit = g + round // abandon after a prefix
					}
					n := 0
					for rows.Next() {
						var pay float64
						var name string
						if err := rows.Scan(&pay, &name); err != nil {
							t.Errorf("goroutine %d round %d: %v", g, round, err)
							break
						}
						n++
						if limit >= 0 && n > limit {
							break
						}
					}
					if err := rows.Close(); err != nil {
						t.Errorf("goroutine %d round %d close: %v", g, round, err)
					}
					if err := rows.Err(); err != nil {
						t.Errorf("goroutine %d round %d err: %v", g, round, err)
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestRowsSurviveStatementClose: database/sql may close the statement
// while its rows are still being read (Close on a pool-owned stmt); the
// in-flight stream must keep delivering.
func TestRowsSurviveStatementClose(t *testing.T) {
	onEachTransport(t, func(t *testing.T, e env) {
		db := e.open("")
		stmt, err := db.Prepare("SELECT CUSTOMERID FROM CUSTOMERS")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := stmt.Query()
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		if err := stmt.Close(); err != nil {
			t.Fatal(err)
		}
		n := 1
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if n != 50 {
			t.Fatalf("streamed %d rows after statement close, want 50", n)
		}
	})
}
