// Regression net for the overload-resilience surfaces: the error-kind
// taxonomy a remote caller sees (server shed vs its own cancellation vs
// transport fault), the overload contract under 2× sustained load,
// execute/fetch idempotency replay at the wire level, and fetch against a
// restarted server. These pin the contracts the retry layer depends on.
package aqualogic

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aqerr"
	"repro/internal/remoteclient"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestShedVsCancelTaxonomyAcrossWire pins the three-way error taxonomy a
// remote caller must be able to branch on:
//   - server shed   → KindUnavailable, carrying a Retry-After hint
//   - caller cancel → KindTimeout, errors.Is(context.Canceled)
//
// and that the two never blur: a shed is not Is(Canceled), a cancel
// carries no Retry-After. The holder's 50 rows span several 4-row chunks,
// so its cursor keeps the one slot after execute.
func TestShedVsCancelTaxonomyAcrossWire(t *testing.T) {
	_, _, c := newLoopback(t, server.Config{
		MaxConcurrentQueries: 1,
		AdmissionWait:        time.Millisecond,
		SessionIdleTimeout:   time.Minute,
		FetchRows:            4,
	})
	ctx := context.Background()

	holder, err := c.QueryDialect(ctx, "", ModeText, "SELECT CUSTOMERID FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()

	// Shed arm: admission rejects, typed, with backoff guidance.
	_, err = c.QueryDialect(ctx, "", ModeText, "SELECT CITY FROM CUSTOMERS")
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("shed: %v, want unavailable QueryError", err)
	}
	if aqerr.RetryAfterHint(err) <= 0 {
		t.Fatalf("shed lost its Retry-After hint across the wire: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("shed misclassified as caller cancellation: %v", err)
	}

	// Cancel arm: the caller's own context, not server capacity.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	_, err = c.QueryDialect(cctx, "", ModeText, "SELECT CITY FROM CUSTOMERS")
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindTimeout {
		t.Fatalf("cancel: %v, want timeout-kind QueryError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel: %v, want errors.Is(context.Canceled)", err)
	}
	if aqerr.RetryAfterHint(err) > 0 {
		t.Fatalf("cancellation acquired a Retry-After hint: %v", err)
	}
}

// TestOverloadContract pins the overload contract through the real server.
// Closed-loop clients (retries off, so every shed is seen raw) run an
// aggregate-join / point-lookup mix, first at capacity, then at 2× capacity
// with cost-weighted admission, a short queue and an admission deadline of
// 2× the uncontended p99. Every op must complete or shed with a typed
// error; nothing sheds uncontended, something sheds overloaded; a shed
// answers within the deadline plus 100 ms; the server counts each shed
// the clients saw under exactly one reason; the drain leaks no goroutine.
func TestOverloadContract(t *testing.T) {
	const capacity, opsPerClient = 2, 15
	const reportSQL = `SELECT C.CITY, COUNT(*) AS ORDERS, SUM(O.TOTAL) AS REVENUE
		FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID
		WHERE C.CITY IS NOT NULL GROUP BY C.CITY HAVING COUNT(*) > 1 ORDER BY 3 DESC`
	const pointSQL = "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID = ?"
	p := Demo()
	runtime.GC()
	baseline := runtime.NumGoroutine()

	// run drives clients closed-loop clients against a fresh server and
	// returns the accepted and shed latencies, each sorted. It reads the
	// server's shed counters before the server closes.
	run := func(name string, cfg server.Config, clients int) (accepted, shed []time.Duration) {
		srv := server.New(p, cfg)
		defer srv.Close()
		var mu sync.Mutex
		var wg sync.WaitGroup
		untyped := 0
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				c, err := remoteclient.LoopbackOptions(srv.Handler(), remoteclient.Options{MaxRetries: -1})
				if err != nil {
					t.Errorf("%s: client %d handshake: %v", name, ci, err)
					return
				}
				defer c.Close()
				for i := 0; i < opsPerClient; i++ {
					sql, args := pointSQL, []any{1000 + (ci+i)%50}
					if (ci+i)%3 == 0 {
						sql, args = reportSQL, nil
					}
					t0 := time.Now()
					rows, err := c.QueryDialect(context.Background(), "", ModeText, sql, args...)
					if err == nil {
						for rows.Next() {
						}
						err = rows.Err()
						rows.Close()
					}
					lat := time.Since(t0)
					var qe *aqerr.QueryError
					mu.Lock()
					switch {
					case err == nil:
						accepted = append(accepted, lat)
					case errors.As(err, &qe) && (qe.Kind == aqerr.KindUnavailable || qe.Kind == aqerr.KindTimeout):
						shed = append(shed, lat)
					default:
						untyped++
						t.Errorf("%s: untyped failure: %v", name, err)
					}
					mu.Unlock()
				}
			}(ci)
		}
		wg.Wait()
		if n := len(accepted) + len(shed) + untyped; n != clients*opsPerClient {
			t.Errorf("%s: %d of %d ops accounted for", name, n, clients*opsPerClient)
		}
		st := srv.Stats()
		if got := st.ShedQueueFull + st.ShedQueueTimeout; got != int64(len(shed)) {
			t.Errorf("%s: server counted %d sheds (queue-full %d, queue-timeout %d), clients saw %d",
				name, got, st.ShedQueueFull, st.ShedQueueTimeout, len(shed))
		}
		for _, d := range [][]time.Duration{accepted, shed} {
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		}
		return accepted, shed
	}
	p99 := func(d []time.Duration) time.Duration {
		if len(d) == 0 {
			return 0
		}
		return d[min(len(d)-1, len(d)*99/100)]
	}

	accepted, shed := run("uncontended", server.Config{MaxConcurrentQueries: capacity, CostPerSlot: math.MaxInt64,
		AdmissionWait: 10 * time.Second, SessionIdleTimeout: time.Minute, FetchRows: 64}, capacity)
	if len(shed) != 0 {
		t.Errorf("uncontended phase shed %d ops", len(shed))
	}

	// One admission slot per cheapest-statement cost, so the heavier
	// statement weighs at least 2: the discrimination admission acts on.
	cost := func(sql string) int64 {
		cq, err := p.CompileContext(context.Background(), sql, ModeText)
		if err != nil {
			t.Fatal(err)
		}
		return cq.Cost()
	}
	wait := max(2*p99(accepted), 5*time.Millisecond)
	_, shed = run("overload 2x", server.Config{MaxConcurrentQueries: capacity,
		CostPerSlot: min(cost(reportSQL), cost(pointSQL)) + 1, MaxQueryWeight: capacity,
		AdmissionWait: wait, AdmissionQueue: capacity / 2,
		SessionIdleTimeout: time.Minute, FetchRows: 64}, 2*capacity)
	if len(shed) == 0 {
		t.Error("overload phase shed nothing: admission control never engaged")
	}
	if got := p99(shed); got > wait+100*time.Millisecond {
		t.Errorf("shed p99 %s exceeds admission deadline %s + 100ms", got, wait)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after the drain: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestExecuteReplayIdempotency pins exec-key replay at the wire level. A
// retried execute of a result longer than one chunk re-presents its key
// and gets the same cursor and a byte-identical first chunk back instead
// of evaluating twice. A result that ended in its first chunk kept no
// state and no key: the retry evaluates again, returns the same bytes,
// and leaves nothing open either.
func TestExecuteReplayIdempotency(t *testing.T) {
	execTwice := func(t *testing.T, h http.Handler, req wire.ExecuteRequest) wire.ExecuteResponse {
		t.Helper()
		code, first := postRaw(t, h, wire.PathExecute, req)
		if code != http.StatusOK {
			t.Fatalf("execute: HTTP %d %s", code, first)
		}
		code, second := postRaw(t, h, wire.PathExecute, req)
		if code != http.StatusOK || !bytes.Equal(second, first) {
			t.Fatalf("replayed execute: HTTP %d\ngot:  %s\nwant: %s", code, second, first)
		}
		var ex wire.ExecuteResponse
		if err := wire.ReadBody(first, &ex); err != nil {
			t.Fatal(err)
		}
		return ex
	}

	t.Run("multi-chunk", func(t *testing.T) {
		_, srv, _ := newLoopback(t, server.Config{FetchRows: 2, SessionIdleTimeout: time.Minute})
		h := srv.Handler()
		req := wire.ExecuteRequest{
			Session: wireSession(t, h),
			SQL:     "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID < 1006",
			ExecKey: "retry-1",
		}
		first := execTwice(t, h, req)
		if first.Cursor == 0 || first.EOF || len(first.Rows) != 2 {
			t.Fatalf("execute: %+v, want an open cursor and a two-row chunk", first)
		}
		st := srv.Stats()
		if st.ExecReplays != 1 {
			t.Fatalf("ExecReplays = %d, want 1", st.ExecReplays)
		}
		if st.CursorsOpened != 1 {
			t.Fatalf("replayed execute evaluated twice: %d cursors opened", st.CursorsOpened)
		}

		// A different key is a different execution.
		req.ExecKey = "retry-2"
		var third wire.ExecuteResponse
		if we := postWire(t, h, wire.PathExecute, req, &third); we != nil {
			t.Fatalf("fresh execute: %v", we)
		}
		if third.Cursor == first.Cursor {
			t.Fatal("distinct exec keys shared a cursor")
		}

		// Once the client has fetched on, its first chunk is gone from the
		// replay slot: re-presenting the key is refused, not answered with
		// the wrong rows.
		var fr wire.FetchResponse
		if we := postWire(t, h, wire.PathFetch, wire.FetchRequest{Session: req.Session, Cursor: third.Cursor, Seq: 2}, &fr); we != nil {
			t.Fatalf("fetch: %v", we)
		}
		if we := postWire(t, h, wire.PathExecute, req, &third); we == nil || aqerr.ParseKind(we.Kind) != aqerr.KindPermanent {
			t.Fatalf("replay past the first chunk: %v, want a permanent error", we)
		}
	})

	// Retries that race the original into the cursor table: whichever
	// registers first keeps its cursor, every other reply replays it, and
	// the losing evaluations are closed rather than left holding slots.
	t.Run("concurrent", func(t *testing.T) {
		_, srv, _ := newLoopback(t, server.Config{FetchRows: 2, SessionIdleTimeout: time.Minute})
		h := srv.Handler()
		body, err := json.Marshal(wire.ExecuteRequest{
			Session: wireSession(t, h),
			SQL:     "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID < 1006",
			ExecKey: "race-1",
		})
		if err != nil {
			t.Fatal(err)
		}
		replies := make([]*httptest.ResponseRecorder, 8)
		var wg sync.WaitGroup
		for i := range replies {
			replies[i] = httptest.NewRecorder()
			wg.Add(1)
			go func(rec *httptest.ResponseRecorder) {
				defer wg.Done()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, wire.PathExecute, bytes.NewReader(body)))
			}(replies[i])
		}
		wg.Wait()
		for _, rec := range replies {
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), replies[0].Body.Bytes()) {
				t.Fatalf("concurrent execute: HTTP %d\ngot:  %s\nwant: %s", rec.Code, rec.Body.Bytes(), replies[0].Body.Bytes())
			}
		}
		if st := srv.Stats(); st.CursorsOpen != 1 || st.QueriesInFlight != 1 {
			t.Fatalf("one key, %d cursors open and %d queries in flight; want 1 and 1", st.CursorsOpen, st.QueriesInFlight)
		}
	})

	t.Run("one-shot", func(t *testing.T) {
		_, srv, _ := newLoopback(t, server.Config{FetchRows: 4, SessionIdleTimeout: time.Minute})
		h := srv.Handler()
		ex := execTwice(t, h, wire.ExecuteRequest{
			Session: wireSession(t, h),
			SQL:     "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID < 1002",
			ExecKey: "once-1",
		})
		if want := []string{"1000", "1001"}; ex.Cursor != 0 || !ex.EOF || !reflect.DeepEqual(ex.Rows, want) {
			t.Fatalf("execute: %+v, want rows %q, EOF and cursor 0", ex, want)
		}
		st := srv.Stats()
		if st.ExecReplays != 0 || st.CursorsOpened != 2 {
			t.Fatalf("one-shot retry: %d replays, %d evaluations; want 0 and 2", st.ExecReplays, st.CursorsOpened)
		}
		if st.CursorsOpen != 0 || st.WeightedInFlight != 0 || st.QueriesInFlight != 0 {
			t.Fatalf("one-shot retry left server state: %+v", st)
		}
	})
}

// TestFetchSeqReplay pins sequenced-fetch semantics: execute's chunk is
// sequence 1, so the first fetch is 2; re-presenting the current sequence
// number replays the identical chunk (the retry path), the successor
// advances, and anything else is a typed permanent out-of-order error
// rather than silent data corruption.
func TestFetchSeqReplay(t *testing.T) {
	_, srv, _ := newLoopback(t, server.Config{FetchRows: 2, SessionIdleTimeout: time.Minute})
	h := srv.Handler()

	session := wireSession(t, h)
	var ex wire.ExecuteResponse
	if we := postWire(t, h, wire.PathExecute, wire.ExecuteRequest{
		Session: session, SQL: "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID < 1008",
	}, &ex); we != nil {
		t.Fatalf("execute: %v", we)
	}
	if ex.Cursor == 0 || len(ex.Rows) != 2 {
		t.Fatalf("execute: %+v, want an open cursor and a two-row chunk", ex)
	}
	// fetch returns one sequenced chunk and the body it came in.
	fetch := func(seq int64) (wire.FetchResponse, []byte) {
		code, body := postRaw(t, h, wire.PathFetch, wire.FetchRequest{Session: session, Cursor: ex.Cursor, Seq: seq})
		var fr wire.FetchResponse
		if code != http.StatusOK {
			t.Fatalf("fetch seq %d: HTTP %d %s", seq, code, body)
		}
		if err := wire.ReadBody(body, &fr); err != nil {
			t.Fatalf("fetch seq %d: %v", seq, err)
		}
		return fr, body
	}

	// Sequence 1 is the chunk execute carried.
	if one, _ := fetch(1); !slices.Equal(one.Rows, ex.Rows) || one.EOF || one.Error != nil {
		t.Fatalf("seq-1 replay %+v, want execute's chunk %q", one, ex.Rows)
	}

	two, twoBody := fetch(2)
	if two.Error != nil || len(two.Rows) != 2 {
		t.Fatalf("second chunk: %+v", two)
	}
	if slices.Equal(two.Rows, ex.Rows) {
		t.Fatal("first fetch re-delivered execute's chunk")
	}
	if _, replayBody := fetch(2); !bytes.Equal(replayBody, twoBody) {
		t.Fatalf("seq-2 replay diverged:\ngot:  %q\nwant: %q", replayBody, twoBody)
	}
	if st := srv.Stats(); st.FetchReplays != 2 {
		t.Fatalf("FetchReplays = %d, want 2", st.FetchReplays)
	}

	// Skipping ahead is a hard protocol error, not quiet row loss.
	var oo wire.FetchResponse
	if we := postWire(t, h, wire.PathFetch, wire.FetchRequest{
		Session: session, Cursor: ex.Cursor, Seq: 4,
	}, &oo); we == nil {
		t.Fatal("out-of-order fetch succeeded")
	} else if aqerr.ParseKind(we.Kind) != aqerr.KindPermanent {
		t.Fatalf("out-of-order fetch: kind %s, want permanent", we.Kind)
	}

	// So is a fetch with no sequence number: every fetch is numbered.
	if we := postWire(t, h, wire.PathFetch, wire.FetchRequest{Session: session, Cursor: ex.Cursor}, &oo); we == nil {
		t.Fatal("unsequenced fetch succeeded")
	} else if aqerr.ParseKind(we.Kind) != aqerr.KindPermanent {
		t.Fatalf("unsequenced fetch: kind %s, want permanent", we.Kind)
	}

	// The successor still advances normally after the rejected skip.
	three, _ := fetch(3)
	if three.Error != nil || len(three.Rows) != 2 {
		t.Fatalf("third chunk after replay: %+v", three)
	}
	if slices.Equal(three.Rows, two.Rows) {
		t.Fatal("advance re-delivered the second chunk")
	}
}

// TestFetchAgainstRestartedServer pins the restart story: a client whose
// server went away mid-stream gets a prompt typed unavailable (the new
// process does not know the session), never a hang or a silent empty
// result — and a fresh dial against the restarted server works.
func TestFetchAgainstRestartedServer(t *testing.T) {
	p := Demo()
	srv1 := server.New(p, server.Config{FetchRows: 2, SessionIdleTimeout: time.Minute})

	// One stable URL whose backing server can be swapped: a restart that
	// keeps the address but loses all session state.
	var current atomic.Pointer[http.Handler]
	h1 := srv1.Handler()
	current.Store(&h1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	defer ts.Close()

	c, err := remoteclient.DialOptions(ts.URL, remoteclient.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.QueryDialect(context.Background(), "", ModeText, "SELECT CUSTOMERID FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}

	// Restart: new server instance, same address, sessions gone.
	srv2 := server.New(p, server.Config{FetchRows: 2, SessionIdleTimeout: time.Minute})
	defer srv2.Close()
	h2 := srv2.Handler()
	current.Store(&h2)
	srv1.Close()

	start := time.Now()
	for rows.Next() {
	}
	err = rows.Err()
	elapsed := time.Since(start)
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("fetch after restart: %v, want unavailable QueryError", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("restart detection took %v, want prompt", elapsed)
	}
	rows.Close()

	// Retriable from scratch: a new handshake against the same URL serves.
	c2, err := remoteclient.Dial(ts.URL)
	if err != nil {
		t.Fatalf("redial after restart: %v", err)
	}
	defer c2.Close()
	fresh, err := c2.QueryDialect(context.Background(), "", ModeText, "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID = 1005")
	if err != nil {
		t.Fatalf("query after restart: %v", err)
	}
	if out, err := drainClose(fresh); err != nil || out == "" {
		t.Fatalf("restarted server rows: %q err=%v", out, err)
	}
}
