package aqualogic

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/remoteclient"
	"repro/internal/server"
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
