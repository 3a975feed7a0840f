// Command aqlserve runs the network data-service server: the AquaLogic
// DSP server process of the paper's client/server architecture. It fronts
// the demo platform (TPC-C-flavored order/customer/payment data plus the
// examples' logical data services) with the internal/wire HTTP protocol —
// handshake, prepare, execute, chunked fetch, explain, metadata browse —
// under session limits, admission control, and idle-session reaping.
//
// A remote client (internal/remoteclient, or anything speaking the JSON
// protocol) then sees the same query and catalog surfaces the in-process
// facade offers.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/faultnet"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7117", "listen address")
	maxSessions := flag.Int("max-sessions", 0, "session cap (≤ 0 = default 4096)")
	maxQueries := flag.Int("max-queries", 0, "concurrent evaluation cap (≤ 0 = default 256)")
	idle := flag.Duration("session-idle", 0, "idle-session reap timeout (0 = default 60s, negative = never reap)")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-query evaluation deadline (0 = unbounded)")
	fetchRows := flag.Int("fetch-rows", 0, "rows per fetch chunk (≤ 0 = default 256)")
	admissionWait := flag.Duration("admission-wait", 0, "max queue wait before a shed (≤ 0 = default 50ms)")
	costPerSlot := flag.Int64("cost-per-slot", 0, "predicted cost per admission slot (≤ 0 = default 10000)")
	maxWeight := flag.Int64("max-query-weight", 0, "admission-weight clamp per query (≤ 0 = default max-queries/4)")
	admissionQueue := flag.Int("admission-queue", 0, "bounded admission queue length (≤ 0 = default 4×max-queries)")
	resilience := flag.Bool("resilient", true, "enable the retry/breaker/stale-cache layer")
	faultRate := flag.Float64("fault-rate", 0, "faultnet injection probability in [0,1] (0 = off)")
	faultSeed := flag.Uint64("fault-seed", 1, "faultnet deterministic schedule seed")
	flag.Parse()

	p := aqualogic.Demo()
	if *resilience {
		// No QueryTimeout here: it bounds in-process database/sql
		// statements only; served evaluations are bounded by the server's.
		p.EnableResilience(aqualogic.ResilienceConfig{})
	}
	var inj *faultnet.Injector
	if *faultRate > 0 {
		inj = p.EnableFaults(aqualogic.FaultConfig{Seed: *faultSeed, Rate: *faultRate})
	}

	srv := server.New(p, server.Config{
		MaxSessions:          *maxSessions,
		MaxConcurrentQueries: *maxQueries,
		AdmissionWait:        *admissionWait,
		CostPerSlot:          *costPerSlot,
		MaxQueryWeight:       *maxWeight,
		AdmissionQueue:       *admissionQueue,
		SessionIdleTimeout:   *idle,
		QueryTimeout:         *queryTimeout,
		FetchRows:            *fetchRows,
		Faults:               inj,
	})

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("aqlserve: listening on %s (admission slots %d)\n", *addr, srv.Stats().WeightedCapacity)

	select {
	case err := <-done:
		fmt.Fprintln(os.Stderr, "aqlserve:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("aqlserve: %s — draining\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	srv.Close()
	fmt.Println("aqlserve: shutdown complete")
}
