package resilient

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/faultnet"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

func fastCfg() Config {
	return Config{MaxRetries: 3, BaseBackoff: 100 * time.Microsecond,
		BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond}
}

func transientErr() error {
	return aqerr.Errorf(aqerr.KindTransient, "test", "blip")
}

func TestRetryRescuesTransient(t *testing.T) {
	calls := 0
	var n Counters
	out, err := Do(context.Background(), fastCfg(), &n, "op", func(context.Context) (int, error) {
		calls++
		if calls < 3 {
			return 0, transientErr()
		}
		return 42, nil
	})
	if err != nil || out != 42 {
		t.Fatalf("out=%d err=%v", out, err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if n.Retries.Load() != 2 || n.Rescued.Load() != 1 {
		t.Fatalf("counted %d retries, %d rescued; want 2, 1", n.Retries.Load(), n.Rescued.Load())
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	calls := 0
	_, err := Do(context.Background(), fastCfg(), &Counters{}, "op", func(context.Context) (int, error) {
		calls++
		return 0, aqerr.Errorf(aqerr.KindPermanent, "test", "rejected")
	})
	if calls != 1 {
		t.Fatalf("permanent error retried: calls = %d", calls)
	}
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindPermanent {
		t.Fatalf("err = %v", err)
	}
}

func TestRetryExhaustionIsUnavailable(t *testing.T) {
	cfg := fastCfg()
	calls := 0
	_, err := Do(context.Background(), cfg, &Counters{}, "op", func(context.Context) (int, error) {
		calls++
		return 0, transientErr()
	})
	if calls != cfg.MaxRetries+1 {
		t.Fatalf("calls = %d, want %d", calls, cfg.MaxRetries+1)
	}
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("err = %v, want unavailable", err)
	}
}

func TestRetryDiscardsPartialResults(t *testing.T) {
	// A truncated attempt returns data AND an error; the retry layer must
	// never leak the partial value.
	_, err := Do(context.Background(), Config{MaxRetries: 1, BaseBackoff: time.Microsecond}.WithDefaults(),
		&Counters{}, "op", func(context.Context) ([]int, error) {
			return []int{1, 2}, transientErr()
		})
	if err == nil {
		t.Fatal("want error")
	}
	out, _ := Do(context.Background(), Config{MaxRetries: 1, BaseBackoff: time.Microsecond},
		&Counters{}, "op", func(context.Context) ([]int, error) {
			return []int{1, 2}, transientErr()
		})
	if out != nil {
		t.Fatalf("partial result leaked: %v", out)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := Do(ctx, Config{MaxRetries: 100, BaseBackoff: time.Millisecond}, &Counters{}, "op",
		func(context.Context) (int, error) {
			calls++
			cancel()
			return 0, transientErr()
		})
	if err == nil {
		t.Fatal("want error")
	}
	if calls != 1 {
		t.Fatalf("retried after cancellation: calls = %d", calls)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker("svc", 3, 20*time.Millisecond)
	fault := aqerr.Errorf(aqerr.KindTransient, "svc", "down")

	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused call %d: %v", i, err)
		}
		b.Record(fault)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}

	// Open: fast-fail, and fast (the whole point).
	start := time.Now()
	err := b.Allow()
	if err == nil {
		t.Fatal("open breaker allowed a call")
	}
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("fast-fail err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("fast-fail was not fast")
	}
	if opens, fastFails := b.Stats(); opens != 1 || fastFails != 1 {
		t.Fatalf("breaker counted %d opens, %d fast-fails; want 1, 1", opens, fastFails)
	}

	// After the cooldown: one probe; success closes.
	time.Sleep(25 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open breaker refused the probe: %v", err)
	}
	b.Record(nil)
	if b.State() != BreakerClosed {
		t.Fatalf("state after good probe = %v, want closed", b.State())
	}
}

func TestBreakerHalfOpenReopens(t *testing.T) {
	b := NewBreaker("svc", 1, 10*time.Millisecond)
	b.Record(aqerr.Errorf(aqerr.KindPermanent, "svc", "down"))
	if b.State() != BreakerOpen {
		t.Fatal("threshold 1 should open immediately")
	}
	time.Sleep(15 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatal("probe refused")
	}
	b.Record(aqerr.Errorf(aqerr.KindPermanent, "svc", "still down"))
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe should reopen, state = %v", b.State())
	}
}

func TestBreakerIgnoresSemanticErrors(t *testing.T) {
	b := NewBreaker("svc", 2, time.Minute)
	for i := 0; i < 10; i++ {
		b.Record(fmt.Errorf("xquery dynamic error: bad query"))
	}
	if b.State() != BreakerClosed {
		t.Fatal("query-semantic errors must not open the breaker")
	}
}

func TestEngineGuardRecoversPanics(t *testing.T) {
	e := xqeval.New()
	calls := 0
	e.RegisterContext("urn:t", "FLAKY", func(context.Context, []xdm.Sequence) (xdm.Sequence, error) {
		calls++
		if calls == 1 {
			panic("poisoned row")
		}
		return xdm.SequenceOf(xdm.Integer(7)), nil
	})
	var n Counters
	e.Use(NewEngineGuard(fastCfg(), &n).Middleware())
	out, err := e.Call("urn:t", "FLAKY", nil)
	if err != nil {
		t.Fatalf("retry after recovered panic failed: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if n.Panics.Load() != 1 || n.Retries.Load() != 1 {
		t.Fatalf("guard counted %d panics, %d retries; want 1, 1", n.Panics.Load(), n.Retries.Load())
	}
}

func TestEngineGuardBreakerFailsFastDuringOutage(t *testing.T) {
	e := xqeval.New()
	calls := 0
	e.RegisterContext("urn:t", "DOWN", func(context.Context, []xdm.Sequence) (xdm.Sequence, error) {
		calls++
		return nil, aqerr.Errorf(aqerr.KindTransient, "wire", "connection refused")
	})
	cfg := fastCfg()
	cfg.BreakerCooldown = time.Minute
	g := NewEngineGuard(cfg, &Counters{})
	e.Use(g.Middleware())

	// Drive the breaker open (each engine call retries internally, so a
	// few calls cross the consecutive-fault threshold).
	for i := 0; i < cfg.BreakerThreshold; i++ {
		if _, err := e.Call("urn:t", "DOWN", nil); err == nil {
			t.Fatal("down service should fail")
		}
	}
	if g.BreakerFor("DOWN").State() != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", g.BreakerFor("DOWN").State())
	}

	// Open breaker: the backend is no longer consulted at all.
	before := calls
	start := time.Now()
	_, err := e.Call("urn:t", "DOWN", nil)
	if err == nil {
		t.Fatal("open breaker should fail fast")
	}
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("fast-fail err = %v", err)
	}
	if calls != before {
		t.Fatal("open breaker still reached the backend")
	}
	if time.Since(start) > time.Second {
		t.Fatal("fast-fail took too long")
	}
}

func TestSourceGuardRetriesChaos(t *testing.T) {
	// Metadata through chaos at a high transient rate: retries should
	// rescue essentially every lookup.
	inj := faultnet.New(faultnet.Config{Seed: 11, Rate: 0.4, Kinds: []faultnet.Kind{faultnet.KindTransient}})
	cfg := fastCfg()
	cfg.MaxRetries = 8
	src := NewSource(inj.Source(catalog.Demo()), cfg, &Counters{})
	for i := 0; i < 50; i++ {
		if _, err := src.Lookup(catalog.TableRef{Table: "CUSTOMERS"}); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
}

func TestStaleMetadataDuringHardDown(t *testing.T) {
	// The full degradation ladder for metadata: cache + retries over a
	// backend that goes hard-down. Queries keep answering from stale
	// entries and the degradation is visible in Stats.
	inner := &switchableSource{src: catalog.Demo()}
	cfg := fastCfg()
	cfg.MaxRetries = 1
	cache := catalog.NewCache(NewSource(inner, cfg, &Counters{}))
	cache.FreshFor = time.Nanosecond
	ref := catalog.TableRef{Table: "CUSTOMERS"}

	if _, err := cache.Lookup(ref); err != nil {
		t.Fatal(err)
	}
	inner.setDown(true)
	time.Sleep(time.Millisecond)
	meta, err := cache.Lookup(ref)
	if err != nil || meta == nil {
		t.Fatalf("hard-down lookup should serve stale, got %v", err)
	}
	s := cache.Stats()
	if !s.Degraded || s.StaleServes == 0 {
		t.Fatalf("stats = %+v, want degraded with stale serves", s)
	}
}

// switchableSource simulates a backend that can be taken hard-down.
// A panic inside a metadata lookup must be contained to the attempt and
// retried, exactly like a transient error — the fuzz net caught an
// injected metadata panic escaping through the translator.
func TestSourceGuardRecoversPanics(t *testing.T) {
	app := catalog.Demo()
	calls := 0
	src := NewSource(sourceFunc(func(ref catalog.TableRef) (*catalog.TableMeta, error) {
		calls++
		if calls == 1 {
			panic("metadata backend crashed")
		}
		return app.Lookup(ref)
	}), fastCfg(), &Counters{})
	meta, err := src.Lookup(catalog.TableRef{Table: "CUSTOMERS"})
	if err != nil {
		t.Fatalf("retry after recovered metadata panic failed: %v", err)
	}
	if meta == nil || calls != 2 {
		t.Fatalf("meta=%v calls=%d, want meta and 2 calls", meta, calls)
	}
}

type sourceFunc func(ref catalog.TableRef) (*catalog.TableMeta, error)

func (f sourceFunc) Lookup(ref catalog.TableRef) (*catalog.TableMeta, error) { return f(ref) }
func (f sourceFunc) Tables() ([]*catalog.TableMeta, error)                   { return nil, nil }
func (f sourceFunc) Procedures() ([]*catalog.TableMeta, error)               { return nil, nil }

type switchableSource struct {
	src  catalog.Source
	down bool
}

func (s *switchableSource) setDown(d bool) { s.down = d }

func (s *switchableSource) Lookup(ref catalog.TableRef) (*catalog.TableMeta, error) {
	if s.down {
		return nil, aqerr.Errorf(aqerr.KindTransient, "wire", "connection refused")
	}
	return s.src.Lookup(ref)
}
func (s *switchableSource) Tables() ([]*catalog.TableMeta, error)     { return s.src.Tables() }
func (s *switchableSource) Procedures() ([]*catalog.TableMeta, error) { return s.src.Procedures() }
