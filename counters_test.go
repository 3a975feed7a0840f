package aqualogic

import (
	"context"
	"database/sql"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/remoteclient"
	"repro/internal/server"
	"repro/internal/xdm"
)

// TestCountersStayWithTheirOwner runs two platforms, each behind its own
// server, in one process. Work on the first must show in the first
// platform's caches and the first server's counters only, and /v1/stats
// must serve exactly what those owners report: there is no process-wide
// copy for the two deployments to add into. The same holds for faults,
// which only the injecting platform counts, and for a wire client's
// breaker, which counts its own openings.
func TestCountersStayWithTheirOwner(t *testing.T) {
	ctx := context.Background()
	p1, srv1, c1 := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	p2, srv2, c2 := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})

	const q = "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID < 1003"
	for i := 0; i < 2; i++ {
		rows, err := c1.Query(ctx, ModeText, q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drainClose(rows); err != nil {
			t.Fatal(err)
		}
	}

	cs1, md1 := p1.CompileStats(), p1.MetadataStats()
	if cs1.Misses != 1 || cs1.Hits < 1 || md1.Misses < 1 {
		t.Fatalf("first platform: compile %+v, metadata %+v; want one miss, then hits", cs1, md1)
	}
	if cs2, md2 := p2.CompileStats(), p2.MetadataStats(); cs2.Hits+cs2.Misses+cs2.Shared != 0 || md2.Hits+md2.Misses != 0 {
		t.Fatalf("second platform counted the first one's work: compile %+v, metadata %+v", cs2, md2)
	}
	if st := srv2.Stats(); st.SessionsOpened != 1 || st.CursorsOpened != 0 || st.PeakInFlight != 0 {
		t.Fatalf("second server counted the first one's work: %+v", st)
	}

	resp, err := c1.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Compile.Hits != cs1.Hits || resp.Compile.Misses != cs1.Misses ||
		resp.Metadata.Hits != md1.Hits || resp.Metadata.Misses != md1.Misses {
		t.Fatalf("/v1/stats caches: compile %+v, metadata %+v; the platform says %+v, %+v",
			resp.Compile, resp.Metadata, cs1, md1)
	}
	if st := srv1.Stats(); resp.Server.CursorsOpened != st.CursorsOpened || st.CursorsOpened != 2 || resp.Server.SessionsOpened != 1 {
		t.Fatalf("/v1/stats server block %+v, server %+v; want one session and two evaluations", resp.Server, st)
	}

	resp2, err := c2.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Compile.Hits+resp2.Compile.Misses != 0 || resp2.Server.CursorsOpened != 0 {
		t.Fatalf("second server's /v1/stats shows the first one's work: compile %+v, server %+v", resp2.Compile, resp2.Server)
	}

	// The pipeline counters: one translation and two evaluations of three
	// rows each, in the first platform's Stats and its server's pipeline
	// block only.
	ps1 := p1.Stats()
	if ps1.QueriesTranslated != 1 || ps1.QueriesExecuted != 2 || ps1.Rows != 6 || ps1.EvalSteps == 0 || len(ps1.Stages) == 0 {
		t.Fatalf("first platform's Stats %+v; want 1 translation, 2 evaluations, 6 rows, steps and stage times", ps1)
	}
	if pl := resp.Pipeline; pl.QueriesExecuted != ps1.QueriesExecuted || pl.EvalSteps != ps1.EvalSteps ||
		pl.Rows != ps1.Rows || len(pl.Stages) != len(ps1.Stages) {
		t.Fatalf("/v1/stats pipeline %+v; the platform says %+v", pl, ps1)
	}
	for name, ps := range map[string]PipelineStats{"second platform": p2.Stats(), "second server's pipeline block": resp2.Pipeline} {
		if ps.QueriesTranslated+ps.QueriesExecuted+ps.EvalSteps+ps.Rows != 0 || len(ps.Stages) != 0 {
			t.Fatalf("%s counted the first one's work: %+v", name, ps)
		}
	}

	// Faults: the injecting platform counts them, from its injector.
	p3 := Demo()
	inj := p3.EnableFaults(FaultConfig{Seed: 5, Rate: 1, Kinds: []FaultKind{FaultLatency}, Latency: time.Microsecond})
	rows, err := p3.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drainClose(rows); err != nil {
		t.Fatal(err)
	}
	var fired int64
	for _, site := range inj.Report() {
		fired += site.Total()
	}
	if got := p3.Stats().FaultsInjected; fired == 0 || got != fired {
		t.Fatalf("injecting platform counted %d faults; its injector fired %d", got, fired)
	}
	if got := p1.Stats().FaultsInjected + p2.Stats().FaultsInjected; got != 0 {
		t.Fatalf("platforms without an injector counted %d faults", got)
	}

	// A wire client's breaker: opened by a damaged reply, counted on the
	// client and in no platform.
	var broken atomic.Bool
	h := srv1.Handler()
	c3, err := remoteclient.LoopbackOptions(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			w.Write([]byte("not a wire body"))
			return
		}
		h.ServeHTTP(w, r)
	}), remoteclient.Options{MaxRetries: -1, BreakerThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	broken.Store(true)
	if _, err := c3.ServerStats(ctx); err == nil {
		t.Fatal("a damaged reply must fail")
	}
	if opens, _ := c3.Breaker().Stats(); opens != 1 {
		t.Fatalf("client breaker counted %d openings, want 1", opens)
	}
	for i, p := range []*Platform{p1, p2, p3} {
		if n := p.Stats().BreakerOpens; n != 0 {
			t.Fatalf("platform %d counted %d breaker openings of a wire client", i+1, n)
		}
	}
}

// TestKeptReportCounted runs the demo GROUP BY report twice, prepared and
// served, with two parameter values. Its RECORDSET reads no parameter, so
// the first execution builds it and keeps it with the cached plan and the
// second reuses it: one build and one reuse, in Platform.Stats and in
// /v1/stats alike. Each execution gives the naive oracle's rows.
func TestKeptReportCounted(t *testing.T) {
	ctx := context.Background()
	p, _, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	const report = "SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) > ?"
	st, err := c.Prepare(ctx, report, ModeXML)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := p.CompileContext(ctx, report, ModeXML)
	if err != nil {
		t.Fatal(err)
	}
	for _, floor := range []int{2, 3} {
		served, err := st.Execute(ctx, floor)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for served.Next() {
			var cells []string // NULL is an absent column in the naive RECORD
			for i := 0; i < 2; i++ {
				if v, _ := served.Value(i); v != nil {
					cells = append(cells, v.Lexical())
				}
			}
			got = append(got, strings.Join(cells, "="))
		}
		if err := served.Err(); err != nil {
			t.Fatal(err)
		}
		served.Close()
		ext := map[string]xdm.Sequence{"p1": xdm.SequenceOf(xdm.Integer(floor))}
		naive, err := p.Engine.EvalNaive(ctx, cq.Plan.Query, ext)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, rec := range xdm.AppendChildren(nil, naive[0].(xdm.Node), "RECORD") {
			var cells []string
			xdm.Columns(rec.(xdm.Node), func(_, text string) bool { cells = append(cells, text); return true })
			want = append(want, strings.Join(cells, "="))
		}
		if len(got) == 0 || strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("HAVING COUNT(*) > %d: served %v, naive %v", floor, got, want)
		}
	}
	local := p.Stats()
	stats, err := c.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for where, s := range map[string]PipelineStats{"Platform.Stats": local, "/v1/stats": stats.Pipeline} {
		if s.KeptBuilds != 1 || s.KeptReuses != 1 {
			t.Errorf("%s: %d kept builds, %d reuses, want 1 and 1", where, s.KeptBuilds, s.KeptReuses)
		}
	}
}

// TestEveryEntryCountedOnce: every execution takes one tail, whose cursor
// clocks it, so one execution through any entry — the facade drained or
// materialized, database/sql in process and over aql://, the wire
// client's prepared statement — adds exactly one evaluate and one decode
// to its platform's stage histograms. Then the entries run concurrently
// while Stats is read: the clocks fold from producers and closers as the
// histograms are read, and still count each execution once.
func TestEveryEntryCountedOnce(t *testing.T) {
	ctx := context.Background()
	p, _, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	p.RegisterDriver("every-entry-counted-once")
	_, remote := serveTCP(t, p)
	local, overTCP := openSQL(t, "every-entry-counted-once"), openSQL(t, remote)
	const q = "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID < ?"
	stmt, err := c.Prepare(ctx, q, ModeText)
	if err != nil {
		t.Fatal(err)
	}
	drain := func(rows *Rows, err error) error {
		if err != nil {
			return err
		}
		_, err = drainClose(rows)
		return err
	}
	scan := func(rows *sql.Rows, err error) error {
		if err != nil {
			return err
		}
		defer rows.Close()
		for rows.Next() {
		}
		return rows.Err()
	}
	entries := []struct {
		name string
		run  func() error
	}{
		{"Query", func() error { return drain(p.Query(q, 1003)) }},
		{"QueryStreamMode drained", func() error { return drain(p.QueryStreamMode(ctx, ModeXML, q, 1003)) }},
		{"QueryStreamMode materialized", func() error {
			rows, err := p.QueryStreamMode(ctx, ModeText, q, 1003)
			if err != nil {
				return err
			}
			defer rows.Close()
			return rows.Materialize()
		}},
		{"database/sql", func() error { return scan(local.QueryContext(ctx, q, 1003)) }},
		{"database/sql over aql://", func() error { return scan(overTCP.QueryContext(ctx, q, 1003)) }},
		{"wire client Prepare/Execute", func() error { return drain(stmt.Execute(ctx, 1003)) }},
	}
	for _, e := range entries {
		evals, decodes := stageCount(p, "evaluate"), stageCount(p, "decode")
		if err := e.run(); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if de, dd := stageCount(p, "evaluate")-evals, stageCount(p, "decode")-decodes; de != 1 || dd != 1 {
			t.Errorf("%s: one execution added %d evaluate and %d decode, want 1 and 1", e.name, de, dd)
		}
	}

	const rounds = 3
	evals, decodes := stageCount(p, "evaluate"), stageCount(p, "decode")
	done := make(chan struct{})
	var reads sync.WaitGroup
	reads.Add(1)
	go func() {
		defer reads.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = p.Stats()
			}
		}
	}()
	var runs sync.WaitGroup
	for _, e := range entries {
		runs.Add(1)
		go func() {
			defer runs.Done()
			for i := 0; i < rounds; i++ {
				if err := e.run(); err != nil {
					t.Errorf("%s: %v", e.name, err)
				}
			}
		}()
	}
	runs.Wait()
	close(done)
	reads.Wait()
	want := int64(rounds * len(entries))
	if de, dd := stageCount(p, "evaluate")-evals, stageCount(p, "decode")-decodes; de != want || dd != want {
		t.Fatalf("%d concurrent executions added %d evaluate and %d decode", want, de, dd)
	}
}

// TestPointLookupAllocs: a prepared execution takes the facade's tail and
// builds no trace, so a Demo() point lookup allocates no more through
// Prepare/Execute than through QueryStreamMode, which resolves its text
// in the compile cache on every call; and counting every execution's
// stages costs the facade nothing. 35 (37 under the race detector) is
// the facade's figure once an evaluation read its plan's prefix map
// instead of building its own (64-bit Go 1.24; 37 and 39 before), when
// the prepared statement read 30.
func TestPointLookupAllocs(t *testing.T) {
	facadeBound := 35.0
	if raceEnabled {
		facadeBound = 37
	}
	p := Demo()
	ctx := context.Background()
	const q = "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?"
	st, err := p.Prepare(ctx, q, ModeText)
	if err != nil {
		t.Fatal(err)
	}
	drain := func(rows *Rows, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		rows.Close()
	}
	facade := testing.AllocsPerRun(200, func() { drain(p.QueryStreamMode(ctx, ModeText, q, 1001)) })
	prepared := testing.AllocsPerRun(200, func() { drain(st.Execute(ctx, 1001)) })
	t.Logf("point lookup: %.0f allocations through QueryStreamMode, %.0f prepared", facade, prepared)
	if prepared > facade || facade > facadeBound {
		t.Fatalf("point lookup: %.0f allocations prepared, %.0f through the facade; want prepared ≤ facade ≤ %.0f", prepared, facade, facadeBound)
	}
}
