// Chaos soak for the resilience net: the full stack — translator, driver
// entry points, planner, evaluator — runs the EXPLAIN golden corpus and
// translator fuzz seeds through an armed fault-injection net at several
// fault rates, concurrently, under -race. The contract being proven:
//
//   - no injected panic ever escapes the defenses,
//   - every failure surfaces as a typed error (never silent corruption),
//   - every retried success is byte-identical to the fault-free run —
//     partial (truncated) row sequences are never mistaken for results.
package aqualogic

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aqerr"
	"repro/internal/demo"
	"repro/internal/faultnet"
	"repro/internal/remoteclient"
	"repro/internal/server"
)

// chaosCorpus mirrors the differential corpus (EXPLAIN golden SQL plus
// translator fuzz seeds).
func chaosCorpus() []string {
	return []string{
		"SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS",
		"SELECT * FROM CUSTOMERS",
		"SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID",
		"SELECT A.CUSTOMERNAME, B.PAYMENT FROM CUSTOMERS A LEFT OUTER JOIN PAYMENTS B ON A.CUSTOMERID = B.CUSTID",
		"SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) > 1",
		"SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS",
		"SELECT INFO.ID FROM (SELECT CUSTOMERID ID FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTID FROM PAYMENTS WHERE PAYMENT > 100)",
		"SELECT DISTINCT CITY FROM CUSTOMERS ORDER BY CITY DESC",
		"SELECT UPPER(CUSTOMERNAME), LENGTH(CITY) FROM CUSTOMERS WHERE CITY IS NOT NULL",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ? AND CITY = ?",
		"SELECT CAST(CUSTOMERID AS VARCHAR(10)) FROM CUSTOMERS ORDER BY 1",
		"SELECT COUNT(DISTINCT CITY), MIN(SIGNUPDATE) FROM CUSTOMERS",
		"SELECT EXTRACT(YEAR FROM PAYDATE), SUM(PAYMENT) FROM PAYMENTS GROUP BY EXTRACT(YEAR FROM PAYDATE)",
		"SELECT * FROM PO_CUSTOMERS WHERE STATUS = 'OPEN' AND TOTAL BETWEEN 10 AND 500",
		"SELECT CUSTOMERID FROM CUSTOMERS EXCEPT SELECT CUSTID FROM PAYMENTS",
	}
}

// chaosArgs supplies parameter values for a statement's `?` markers.
func chaosArgs(paramCount int) []any {
	switch paramCount {
	case 1:
		return []any{1005}
	case 2:
		return []any{1005, "Springfield"}
	default:
		return nil
	}
}

// drain materializes a streaming result set — where mid-stream faults
// (sources failing with rows already delivered) surface — then renders it.
func drain(r *Rows) (string, error) {
	if err := r.Materialize(); err != nil {
		return "", err
	}
	return marshalRows(r), nil
}

// marshalRows renders a result set canonically for byte comparison.
func marshalRows(r *Rows) string {
	var b strings.Builder
	for _, c := range r.Columns() {
		fmt.Fprintf(&b, "[%s]", c.Label)
	}
	b.WriteByte('\n')
	r.Reset()
	for r.Next() {
		for i := range r.Columns() {
			s, ok, err := r.String(i)
			switch {
			case err != nil:
				fmt.Fprintf(&b, "|!%v", err)
			case !ok:
				b.WriteString("|NULL")
			default:
				fmt.Fprintf(&b, "|%s", s)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// chaosPlatform builds a defended platform over the chaos layer.
func chaosPlatform(sizes demo.Sizes, fcfg FaultConfig) (*Platform, *FaultInjector) {
	app, _, engine := demo.Setup(sizes)
	p := New(app, engine)
	inj := p.EnableFaults(fcfg)
	p.EnableResilience(ResilienceConfig{
		MaxRetries:       6,
		BaseBackoff:      200 * time.Microsecond,
		BreakerThreshold: 50, // soak wants retried successes, not fast-fails
		BreakerCooldown:  5 * time.Millisecond,
		StaleTTL:         time.Hour,
		QueryTimeout:     30 * time.Second,
	})
	return p, inj
}

// typedFailure reports whether an error is an acceptable chaos outcome:
// a classified fault or a typed QueryError. Anything else (raw string
// errors, nil-dereference panics turned errors) is a defense gap.
func typedFailure(err error) bool {
	var qe *aqerr.QueryError
	return aqerr.Fault(err) || errors.As(err, &qe)
}

func TestChaosSoak(t *testing.T) {
	sizes := demo.Sizes{Customers: 12, PaymentsPerCustomer: 2, Orders: 12, ItemsPerOrder: 2}

	// Fault-free baseline for byte-identity.
	app, _, engine := demo.Setup(sizes)
	base := New(app, engine)
	want := make(map[string]string, len(chaosCorpus()))
	for _, sql := range chaosCorpus() {
		rows, err := base.Query(sql, chaosArgs(strings.Count(sql, "?"))...)
		if err == nil {
			want[sql], err = drain(rows)
		}
		if err != nil {
			t.Fatalf("baseline %q: %v", sql, err)
		}
	}

	iters := 3
	if testing.Short() {
		iters = 1
	}
	for _, rate := range []float64{0, 0.05, 0.2} {
		rate := rate
		t.Run(fmt.Sprintf("rate=%v", rate), func(t *testing.T) {
			p, inj := chaosPlatform(sizes, FaultConfig{
				Seed:         2026,
				Rate:         rate,
				Latency:      200 * time.Microsecond,
				StallTimeout: 5 * time.Millisecond,
			})
			var successes, failures int64
			var mu sync.Mutex
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						for _, sql := range chaosCorpus() {
							rows, err := p.Query(sql, chaosArgs(strings.Count(sql, "?"))...)
							var got string
							if err == nil {
								// Faults can also strike with rows already in
								// flight; they must surface typed from the
								// cursor, never as a silent short read.
								got, err = drain(rows)
							}
							if err != nil {
								if !typedFailure(err) {
									t.Errorf("untyped chaos failure for %q: %v", sql, err)
								}
								mu.Lock()
								failures++
								mu.Unlock()
								continue
							}
							if got != want[sql] {
								t.Errorf("rate %v: %q diverged from fault-free run\ngot:  %s\nwant: %s",
									rate, sql, got, want[sql])
							}
							mu.Lock()
							successes++
							mu.Unlock()
						}
					}
				}(g)
			}
			wg.Wait()

			total := successes + failures
			if rate == 0 {
				if failures != 0 {
					t.Fatalf("rate 0 had %d failures", failures)
				}
				for _, r := range inj.Report() {
					if r.Total() != 0 {
						t.Fatalf("rate 0 injected faults at %s: %+v", r.Name, r)
					}
				}
			} else {
				if successes == 0 {
					t.Fatalf("no retried successes at rate %v (%d runs)", rate, total)
				}
				var injected int64
				for _, r := range inj.Report() {
					injected += r.Total()
				}
				if injected == 0 {
					t.Fatalf("rate %v injected nothing over %d runs", rate, total)
				}
				t.Logf("rate %v: %d/%d queries succeeded, %d faults injected across %d sites",
					rate, successes, total, injected, len(inj.Report()))
			}
		})
	}
}

// TestChaosHardDown proves the degradation ladder end to end: with the
// backend fully down (rate 1, transient-only), previously cached metadata
// keeps translation alive — served stale and flagged — and execution
// fails fast through the open breakers with typed unavailable errors,
// well inside the configured timeout.
func TestChaosHardDown(t *testing.T) {
	sizes := demo.Sizes{Customers: 8, PaymentsPerCustomer: 2, Orders: 8, ItemsPerOrder: 2}
	app, _, engine := demo.Setup(sizes)
	p := New(app, engine)
	// Healthy at first (rate 0); transient-only so the outage models a
	// backend that stops answering, not one that corrupts.
	inj := p.EnableFaults(FaultConfig{Seed: 7, Rate: 0, Kinds: []FaultKind{FaultTransient}})
	p.EnableResilience(ResilienceConfig{
		MaxRetries:       1,
		BaseBackoff:      100 * time.Microsecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
		StaleTTL:         time.Nanosecond, // every lookup refreshes; outage → stale
		QueryTimeout:     2 * time.Second,
	})

	const sql = "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS"
	if _, err := p.Query(sql); err != nil {
		t.Fatalf("healthy query: %v", err)
	}

	inj.SetRate(1) // the backend goes hard-down

	// Metadata survives on stale entries (flagged), so translation works.
	if _, err := p.Translate(sql, ModeText); err != nil {
		t.Fatalf("hard-down translate should serve stale metadata: %v", err)
	}
	if s := p.MetadataStats(); !s.Degraded || s.StaleServes == 0 {
		t.Fatalf("metadata stats = %+v, want degraded + stale serves", s)
	}

	// Execution trips the breaker, then fails fast with typed errors.
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for i := 0; i < 10 && time.Now().Before(deadline); i++ {
		_, lastErr = p.Query(sql)
		if lastErr == nil {
			t.Fatal("hard-down query succeeded")
		}
		if !typedFailure(lastErr) {
			t.Fatalf("untyped hard-down error: %v", lastErr)
		}
	}
	start := time.Now()
	_, err := p.Query(sql)
	if err == nil {
		t.Fatal("open breaker should fail")
	}
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("fast-fail error untyped: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fast-fail took %v, want well under the 2s timeout", elapsed)
	}
}

// FuzzFaultedEval drives arbitrary accepted SQL through the defended
// chaos stack: whatever the seed and statement, no panic may escape, no
// failure may be untyped, and any success must match the fault-free run.
func FuzzFaultedEval(f *testing.F) {
	for i, sql := range chaosCorpus() {
		f.Add(sql, uint64(i*7+1))
	}
	sizes := demo.Sizes{Customers: 6, PaymentsPerCustomer: 2, Orders: 6, ItemsPerOrder: 2}
	app, _, engine := demo.Setup(sizes)
	base := New(app, engine)
	f.Fuzz(func(t *testing.T, sql string, seed uint64) {
		res, err := base.Translate(sql, ModeText)
		if err != nil || res.ParamCount > 2 {
			return
		}
		if strings.Contains(res.XQuery(), "fn:current-") {
			return // nondeterministic between the two runs
		}
		args := chaosArgs(res.ParamCount)
		baseRows, baseErr := base.Query(sql, args...)
		var want string
		if baseErr == nil {
			want, baseErr = drain(baseRows)
		}
		p, _ := chaosPlatform(sizes, FaultConfig{
			Seed: seed, Rate: 0.3,
			Latency:      50 * time.Microsecond,
			StallTimeout: time.Millisecond,
		})
		rows, err := p.Query(sql, args...)
		var got string
		if err == nil {
			got, err = drain(rows)
		}
		if err != nil {
			if !typedFailure(err) && baseErr == nil {
				t.Fatalf("untyped chaos failure for %q: %v", sql, err)
			}
			return
		}
		if baseErr != nil {
			return // planner error-timing latitude; value divergence is the bug
		}
		if got != want {
			t.Fatalf("%q under faults diverged\ngot:  %s\nwant: %s", sql, got, want)
		}
	})
}

// TestChaosMidStreamTruncation aims truncation faults — sources that
// return a prefix of the real rows together with an error — at live
// streams consumed row by row, with no resilience layer to absorb them.
// The contract: a run either delivers the complete, byte-identical result
// with a nil Err, or terminates in a typed error; a nil-Err run that
// silently delivered a prefix is the corruption this test exists to catch.
func TestChaosMidStreamTruncation(t *testing.T) {
	sizes := demo.Sizes{Customers: 40, PaymentsPerCustomer: 3, Orders: 12, ItemsPerOrder: 2}
	// Statements whose evaluation calls data sources per tuple, so a
	// truncation can strike with rows already handed to the consumer.
	stmts := []string{
		"SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS",
		"SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTID FROM PAYMENTS WHERE PAYMENT > 100)",
	}

	app, _, engine := demo.Setup(sizes)
	base := New(app, engine)
	want := make(map[string]string, len(stmts))
	for _, sql := range stmts {
		rows, err := base.Query(sql)
		if err == nil {
			want[sql], err = drain(rows)
		}
		if err != nil {
			t.Fatalf("baseline %q: %v", sql, err)
		}
	}

	fapp, _, fengine := demo.Setup(sizes)
	p := New(fapp, fengine)
	inj := p.EnableFaults(FaultConfig{
		Seed:  41,
		Rate:  0.15,
		Kinds: []FaultKind{FaultTruncate}, // truncation only: every fault is a short read
	})

	var midStream, complete int
	for iter := 0; iter < 40; iter++ {
		for _, sql := range stmts {
			rows, err := p.Query(sql)
			if err != nil {
				if !typedFailure(err) {
					t.Fatalf("untyped open-time failure for %q: %v", sql, err)
				}
				continue
			}
			// Live row-by-row consumption: the genuine streaming path, where
			// a silent short read would otherwise be indistinguishable from
			// a small result.
			got, err := marshalStreamed(rows)
			if err != nil {
				if !typedFailure(err) {
					t.Fatalf("untyped mid-stream failure for %q: %v", sql, err)
				}
				midStream++
				continue
			}
			if got != want[sql] {
				t.Fatalf("truncated %q passed off a short read as success\ngot:  %s\nwant: %s",
					sql, got, want[sql])
			}
			complete++
		}
	}
	if midStream == 0 {
		t.Fatalf("no truncation surfaced mid-stream (%d complete runs) — the fault never hit a live cursor", complete)
	}
	var injected int64
	for _, r := range inj.Report() {
		injected += r.Total()
	}
	if injected == 0 {
		t.Fatal("injector reported no truncation faults")
	}
	t.Logf("%d complete runs, %d typed mid-stream truncations, %d faults injected", complete, midStream, injected)
}

// TestServeChaos points the chaos layer at the wire surface itself: every
// srv/* request site (handshake, prepare, execute, fetch, cursor close,
// metadata) misbehaves on a deterministic schedule — transient and
// permanent errors, latency spikes, short stalls, fetch truncation, and
// handler panics. The contract mirrors the in-process soak: no injected
// panic escapes the handler boundary, every failure the client sees is a
// typed error, and any run that reports success is byte-identical to the
// fault-free result (a truncated fetch always carries its error).
func TestServeChaos(t *testing.T) {
	p := Demo()

	// Fault-free baselines straight from the platform: srv/* faults never
	// touch the in-process path.
	baseline := make(map[string]string)
	for _, sql := range chaosCorpus() {
		rows, err := p.Query(sql, chaosArgs(strings.Count(sql, "?"))...)
		if err != nil {
			t.Fatalf("baseline %q: %v", sql, err)
		}
		if baseline[sql], err = drain(rows); err != nil {
			t.Fatalf("baseline %q: %v", sql, err)
		}
	}

	inj := faultnet.New(faultnet.Config{
		Seed:         99,
		Rate:         0.25,
		Latency:      500 * time.Microsecond,
		StallTimeout: 5 * time.Millisecond, // stalls resolve fast in-test
	})
	srv := server.New(p, server.Config{
		FetchRows:          2, // many fetches per statement = many fault rolls
		SessionIdleTimeout: time.Minute,
		Faults:             inj,
	})
	defer srv.Close()
	h := srv.Handler()

	var attempts, failures, truncations int
	for round := 0; round < 4; round++ {
		c, err := remoteclient.Loopback(h)
		if err != nil {
			// Handshake faulted: must be typed, then try again next round.
			if !typedFailure(err) {
				t.Fatalf("handshake failed untyped: %v", err)
			}
			failures++
			continue
		}
		for _, sql := range chaosCorpus() {
			attempts++
			rows, err := c.QueryDialect(context.Background(), "", ModeText, sql,
				chaosArgs(strings.Count(sql, "?"))...)
			var got string
			if err == nil {
				got, err = marshalStreamed(rows)
				rows.Close()
			}
			if err != nil {
				failures++
				if !typedFailure(err) {
					t.Fatalf("%q: untyped failure through the wire: %v", sql, err)
				}
				if strings.Contains(err.Error(), "truncate") {
					truncations++
				}
				continue
			}
			if got != baseline[sql] {
				t.Fatalf("%q: served success diverged from fault-free baseline\ngot:  %s\nwant: %s",
					sql, got, baseline[sql])
			}
		}
		_ = c.Close() // may itself be faulted; either way the server reaps
	}
	if failures == 0 {
		t.Fatalf("chaos injected nothing across %d attempts — schedule dead", attempts)
	}
	t.Logf("serve chaos: %d attempts, %d typed failures (%d truncations)", attempts, failures, truncations)

	// Panic containment is part of the schedule: recovered handler panics
	// must be counted, and the server must still be fully alive.
	inj.SetRate(0)
	c, err := remoteclient.Loopback(h)
	if err != nil {
		t.Fatalf("post-chaos handshake: %v", err)
	}
	sql := "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS"
	rows, err := c.QueryDialect(context.Background(), "", ModeText, sql)
	if err != nil {
		t.Fatalf("post-chaos query: %v", err)
	}
	if got, err := marshalStreamed(rows); err != nil || got != baseline[sql] {
		t.Fatalf("post-chaos rows diverged (err=%v)\ngot:  %s\nwant: %s", err, got, baseline[sql])
	}
	rows.Close()
	if st := srv.Stats(); st.QueriesInFlight != 0 || st.CursorsOpen != 0 {
		t.Fatalf("chaos left server state behind: %+v", st)
	}
}

// TestChaosParallelExecution re-runs the fault soak with morsel-parallel
// execution armed: ds/* faults now strike inside worker goroutines, where
// the pool must cancel the siblings and surface exactly one typed error —
// and every retried success must still be byte-identical to the
// fault-free (parallel) run. Runs under -race via the chaos CI target.
func TestChaosParallelExecution(t *testing.T) {
	sizes := demo.Sizes{Customers: 12, PaymentsPerCustomer: 2, Orders: 12, ItemsPerOrder: 2}
	parCfg := ExecConfig{Workers: 8, MorselSize: 4, MinParallelItems: 2}

	// Fault-free parallel baseline for byte-identity.
	app, _, engine := demo.Setup(sizes)
	base := New(app, engine)
	base.ConfigureExec(parCfg)
	want := make(map[string]string, len(chaosCorpus()))
	for _, sql := range chaosCorpus() {
		rows, err := base.Query(sql, chaosArgs(strings.Count(sql, "?"))...)
		if err == nil {
			want[sql], err = drain(rows)
		}
		if err != nil {
			t.Fatalf("baseline %q: %v", sql, err)
		}
	}

	p, inj := chaosPlatform(sizes, FaultConfig{
		Seed:         2027,
		Rate:         0.2,
		Latency:      200 * time.Microsecond,
		StallTimeout: 5 * time.Millisecond,
	})
	p.ConfigureExec(parCfg)

	iters := 3
	if testing.Short() {
		iters = 1
	}
	var successes, failures int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, sql := range chaosCorpus() {
					rows, err := p.Query(sql, chaosArgs(strings.Count(sql, "?"))...)
					var got string
					if err == nil {
						got, err = drain(rows)
					}
					if err != nil {
						if !typedFailure(err) {
							t.Errorf("untyped chaos failure under parallel execution for %q: %v", sql, err)
						}
						mu.Lock()
						failures++
						mu.Unlock()
						continue
					}
					if got != want[sql] {
						t.Errorf("parallel chaos: %q diverged from fault-free run\ngot:  %s\nwant: %s", sql, got, want[sql])
					}
					mu.Lock()
					successes++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	if successes == 0 {
		t.Fatalf("no retried successes under parallel chaos (%d failures)", failures)
	}
	var injected int64
	for _, r := range inj.Report() {
		injected += r.Total()
	}
	if injected == 0 {
		t.Fatalf("parallel chaos injected nothing over %d runs", successes+failures)
	}
	t.Logf("parallel chaos: %d successes, %d typed failures, %d faults injected", successes, failures, injected)
}
