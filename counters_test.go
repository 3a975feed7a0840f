package aqualogic

import (
	"context"
	"testing"
	"time"

	"repro/internal/server"
)

// TestCountersStayWithTheirOwner runs two platforms, each behind its own
// server, in one process. Work on the first must show in the first
// platform's caches and the first server's counters only, and /v1/stats
// must serve exactly what those owners report: there is no process-wide
// copy for the two deployments to add into.
func TestCountersStayWithTheirOwner(t *testing.T) {
	ctx := context.Background()
	p1, srv1, c1 := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	p2, srv2, c2 := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})

	const q = "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID < 1003"
	for i := 0; i < 2; i++ {
		rows, err := c1.QueryDialect(ctx, "", ModeText, q)
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
}
