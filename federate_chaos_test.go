// Per-source fault isolation: taking one federation backend's data
// services hard-down (every ds/billing/* fault point at rate 1.0) must
// leave the other backends untouched — their queries stay error-free and
// byte-identical to the fault-free run — while the degraded backend's
// circuit breaker opens without tripping anyone else's. Runs under -race
// via the chaos target.
package aqualogic

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/demo"
	"repro/internal/resilient"
	"repro/internal/xdm"
)

func TestChaosFederatedSourceIsolation(t *testing.T) {
	sz := demo.FederatedSizes{Accounts: 12, Invoices: 24, Orders: 36, Shards: 3}
	// Partial mode: the degraded billing shard of ORDERS is skipped rather
	// than failing the whole scatter (the mediator's partial-results mode).
	p := federatedPlatform(t, sz, true)
	inj := p.EnableFaults(FaultConfig{Seed: 42, Rate: 0, Kinds: []FaultKind{FaultPermanent}})
	p.EnableResilience(ResilienceConfig{
		MaxRetries:      1,
		BaseBackoff:     100 * time.Microsecond,
		BreakerCooldown: time.Hour, // stay open for the whole test
	})

	healthy := []string{
		"SELECT ACCOUNTID, NAME FROM ACCOUNTS ORDER BY ACCOUNTID",
		"SELECT REGION, COUNTRY FROM REGIONS ORDER BY REGION",
		"SELECT A.REGION, R.COUNTRY FROM ACCOUNTS A, REGIONS R WHERE A.REGION = R.REGION ORDER BY A.ACCOUNTID",
	}
	run := func(q string) (string, error) {
		cq, err := p.CompileContext(context.Background(), q, ModeXML)
		if err != nil {
			return "", err
		}
		seq, err := p.Engine.EvalPlanWithTrace(context.Background(), cq.Plan, nil, nil)
		if err != nil {
			return "", err
		}
		return xdm.MarshalSequence(seq), nil
	}

	// Fault-free baselines.
	baseline := map[string]string{}
	for _, q := range healthy {
		got, err := run(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		baseline[q] = got
	}

	// Take every billing data service hard-down.
	inj.SetSiteRate("ds/billing/", 1.0)

	// Drive the billing backend until its breaker opens (threshold is 5
	// consecutive faults; permanent faults are not retried).
	var billingErr error
	for i := 0; i < 12; i++ {
		if _, billingErr = run("SELECT INVOICEID FROM INVOICES"); billingErr == nil {
			t.Fatalf("degraded billing query must fail")
		}
	}
	var qe *QueryError
	if !errors.As(billingErr, &qe) {
		t.Fatalf("billing failure must be a typed QueryError, got %T: %v", billingErr, billingErr)
	}

	// The healthy backends answer byte-identically throughout.
	for i := 0; i < 8; i++ {
		for _, q := range healthy {
			got, err := run(q)
			if err != nil {
				t.Fatalf("healthy %q failed while billing degraded: %v", q, err)
			}
			if got != baseline[q] {
				t.Fatalf("healthy %q diverged while billing degraded\nnow:      %s\nbaseline: %s", q, got, baseline[q])
			}
		}
	}

	// The partitioned scan still answers in partial mode (the billing
	// shard is skipped, the central and files shards still stream).
	if _, err := run("SELECT ORDERID, ITEM FROM ORDERS"); err != nil {
		t.Fatalf("partial-mode scatter must tolerate the degraded shard: %v", err)
	}

	// Exactly the billing breakers opened.
	health := p.FederationStats()
	if len(health) != 3 {
		t.Fatalf("FederationStats reported %d sources", len(health))
	}
	var billingOpen bool
	for _, h := range health {
		for svc, state := range h.Breakers {
			if strings.EqualFold(h.Name, demo.SourceBilling) {
				if state == resilient.BreakerOpen {
					billingOpen = true
				}
				continue
			}
			if state != resilient.BreakerClosed {
				t.Fatalf("breaker %s on healthy source %s is %v", svc, h.Name, state)
			}
		}
	}
	if !billingOpen {
		t.Fatalf("billing breaker never opened: %+v", health)
	}
}
