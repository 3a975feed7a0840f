// Package resilient implements the production-side defenses of the
// resilience net: retry with exponential backoff and jitter around
// transient failures, a per-data-service circuit breaker that fails fast
// through outages, and panic containment for data service functions. It
// composes over the same two surfaces faultnet attacks — the catalog
// metadata source and the engine's data service functions — and is wired
// outside the chaos layer, so injected faults hit the defenses exactly the
// way real network faults would.
//
// The third defense, stale-while-revalidate metadata serving, lives in
// catalog.Cache itself (the cache owns the entries); Config.StaleTTL is
// plumbed there by the aqualogic facade.
package resilient

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"sync"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/obsv"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// Config is the resilience knob set the aqualogic facade exposes as
// ResilienceConfig. Zero fields take the defaults below.
type Config struct {
	// MaxRetries is the number of re-attempts after the first failure of
	// a transient operation (default 3; negative disables retries).
	MaxRetries int
	// BaseBackoff is the first retry's backoff; attempt n waits
	// ~BaseBackoff·2ⁿ⁻¹ with ±50% deterministic jitter (default 1ms).
	BaseBackoff time.Duration
	// BreakerThreshold is the consecutive-fault count that opens a data
	// service's circuit breaker (default 5; negative disables breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting a
	// half-open probe through (default 100ms).
	BreakerCooldown time.Duration
	// StaleTTL is the metadata cache's freshness window; entries older
	// than this refresh on access and serve stale when the refresh fails.
	// Zero keeps entries fresh forever (no staleness, no degradation).
	// Applied to catalog.Cache.FreshFor by the facade, not here.
	StaleTTL time.Duration
	// MaxRows caps any query's result size (0 = unlimited). Applied to
	// xqeval.Limits by the facade.
	MaxRows int64
	// QueryTimeout bounds statement execution for callers without their
	// own deadline. Applied to the driver Server by the facade.
	QueryTimeout time.Duration
	// CompileCacheEntries bounds the shared compiled-query cache (0 keeps
	// the qcache default; negative disables compiled-query caching, the
	// memory-starved degraded mode). Applied to qcache.Config by the
	// facade, not here.
	CompileCacheEntries int
}

// WithDefaults fills zero fields with the package defaults.
func (c Config) WithDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 100 * time.Millisecond
	}
	return c
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffFor computes attempt n's backoff: exponential in n with ±50%
// jitter derived deterministically from the operation name, so concurrent
// retries of different operations desynchronize without a shared RNG.
func backoffFor(base time.Duration, attempt int, opHash uint64) time.Duration {
	d := base << uint(attempt-1)
	if d <= 0 || d > 10*time.Second {
		d = 10 * time.Second
	}
	frac := float64(splitmix64(opHash^uint64(attempt))>>11) / float64(1<<53)
	return d/2 + time.Duration(frac*float64(d))
}

func hashOp(op string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(op))
	return h.Sum64()
}

// Counters are the retries Do makes for one owner: attempts beyond the
// first, the operations those attempts rescued, and the panics it
// contained. The platform keeps one for its engine guard and metadata
// sources.
type Counters struct {
	Retries, Rescued, Panics obsv.Counter
}

// Do runs fn with retries, counted in n: transient failures re-attempt up to
// cfg.MaxRetries times with exponential backoff; permanent failures,
// context expiry, and non-fault errors return immediately. A panic in fn
// is contained to its attempt and retried as a transient failure — the
// operations Do guards (metadata lookups, data service calls) are
// read-only, so a crashed attempt leaves nothing to unwind. On error the
// zero T is returned — partial results from a failed attempt (truncated
// row sequences) are always discarded, never patched together. Exhausted
// retries surface as a typed unavailable error wrapping the last failure.
func Do[T any](ctx context.Context, cfg Config, n *Counters, op string, fn func(context.Context) (T, error)) (T, error) {
	var zero T
	var lastErr error
	opHash := hashOp(op)
	attempt1 := func(ctx context.Context) (out T, err error) {
		defer func() {
			if r := recover(); r != nil {
				n.Panics.Inc()
				out = zero
				err = aqerr.Errorf(aqerr.KindTransient, op, "recovered panic: %v", r)
			}
		}()
		return fn(ctx)
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			n.Retries.Inc()
			if err := sleep(ctx, backoffFor(cfg.BaseBackoff, attempt, opHash)); err != nil {
				return zero, aqerr.Wrap(op, err)
			}
		}
		out, err := attempt1(ctx)
		if err == nil {
			if attempt > 0 {
				n.Rescued.Inc()
			}
			return out, nil
		}
		lastErr = err
		if !aqerr.Transient(err) || ctx.Err() != nil {
			return zero, err
		}
		if attempt >= cfg.MaxRetries {
			break
		}
	}
	return zero, aqerr.New(aqerr.KindUnavailable, op,
		fmt.Errorf("retries exhausted after %d attempts: %w", cfg.MaxRetries+1, lastErr))
}

// Backoff returns attempt n's (n ≥ 1) retry delay for op: the same
// exponential schedule with deterministic ±50% jitter Do uses, exported
// for callers that manage their own retry loops (the remote client's wire
// verbs, whose retry decision — idempotency, Retry-After hints — is
// richer than Do's transient-only rule).
func Backoff(base time.Duration, attempt int, op string) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if attempt < 1 {
		attempt = 1
	}
	return backoffFor(base, attempt, hashOp(op))
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes calls through, counting consecutive faults.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets a single probe through; its outcome decides
	// between closing and reopening.
	BreakerHalfOpen
)

// String returns the state's display name.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is one data service's circuit breaker.
type Breaker struct {
	name      string
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	state     BreakerState
	failures  int
	openedAt  time.Time
	probing   bool
	opens     int64
	fastFails int64
}

// NewBreaker builds a closed breaker; threshold <= 0 disables it (Allow
// always passes, Record never opens).
func NewBreaker(name string, threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{name: name, threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a call may proceed: nil when closed or when this
// caller wins the half-open probe slot, a fast-fail unavailable error when
// open.
func (b *Breaker) Allow() error {
	if b.threshold <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if time.Since(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			b.probing = true
			return nil // this caller is the probe
		}
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			return nil
		}
	}
	b.fastFails++
	return aqerr.Errorf(aqerr.KindUnavailable, b.name,
		"circuit breaker open (%d consecutive faults)", b.failures)
}

// Record folds one call outcome into the breaker: infrastructure faults
// count toward the threshold, successes and query-semantic errors reset
// it, context cancellation is neutral (the caller gave up; the backend's
// health is unknown).
func (b *Breaker) Record(err error) {
	if b.threshold <= 0 {
		return
	}
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		b.mu.Lock()
		b.probing = false
		b.mu.Unlock()
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil || !aqerr.Fault(err) {
		b.state = BreakerClosed
		b.failures = 0
		b.probing = false
		return
	}
	b.failures++
	b.probing = false
	if b.state == BreakerHalfOpen || b.failures >= b.threshold {
		if b.state != BreakerOpen {
			b.opens++
		}
		b.state = BreakerOpen
		b.openedAt = time.Now()
	}
}

// Stats reports how many times the breaker has opened and how many calls
// it has failed fast.
func (b *Breaker) Stats() (opens, fastFails int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens, b.fastFails
}

// State returns the breaker's current position (resolving an elapsed
// cooldown to half-open for observability).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && time.Since(b.openedAt) >= b.cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// NewSource wraps a metadata source with retries: transient lookup
// failures (network blips, injected chaos) re-attempt with backoff before
// the caller — usually catalog.Cache, which adds stale-serving on top —
// sees them. n counts the retries.
func NewSource(inner catalog.Source, cfg Config, n *Counters) catalog.Source {
	return &guardedSource{inner: inner, cfg: cfg.WithDefaults(), n: n}
}

type guardedSource struct {
	inner catalog.Source
	cfg   Config
	n     *Counters
}

func (g *guardedSource) Lookup(ref catalog.TableRef) (*catalog.TableMeta, error) {
	return g.LookupContext(context.Background(), ref)
}

func (g *guardedSource) LookupContext(ctx context.Context, ref catalog.TableRef) (*catalog.TableMeta, error) {
	return Do(ctx, g.cfg, g.n, "metadata lookup "+ref.String(), func(ctx context.Context) (*catalog.TableMeta, error) {
		return catalog.LookupContext(ctx, g.inner, ref)
	})
}

func (g *guardedSource) Tables() ([]*catalog.TableMeta, error)     { return g.inner.Tables() }
func (g *guardedSource) Procedures() ([]*catalog.TableMeta, error) { return g.inner.Procedures() }

// EngineGuard is the data-service defense: one circuit breaker per data
// service function plus retries and panic containment around every call.
// Install its Middleware on the engine after (outside) any fault
// injection.
type EngineGuard struct {
	cfg Config
	n   *Counters

	mu       sync.Mutex
	breakers map[string]*Breaker
}

// NewEngineGuard builds the guard; n counts its retries.
func NewEngineGuard(cfg Config, n *Counters) *EngineGuard {
	return &EngineGuard{cfg: cfg.WithDefaults(), n: n, breakers: make(map[string]*Breaker)}
}

// BreakerFor returns (creating on first use) the named function's breaker.
func (g *EngineGuard) BreakerFor(name string) *Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.breakers[name]
	if !ok {
		b = NewBreaker("data service "+name, g.cfg.BreakerThreshold, g.cfg.BreakerCooldown)
		g.breakers[name] = b
	}
	return b
}

// Breakers returns every breaker the guard has created, keyed by the
// data service function name it guards — how the platform reports
// per-source breaker health and sums breaker counts.
func (g *EngineGuard) Breakers() map[string]*Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	return maps.Clone(g.breakers)
}

// Middleware returns the engine middleware applying breaker, retries, and
// panic recovery to every data service call.
func (g *EngineGuard) Middleware() xqeval.Middleware {
	return func(name string, fn xqeval.ContextFunc) xqeval.ContextFunc {
		br := g.BreakerFor(name)
		op := "data service " + name
		return func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			if err := br.Allow(); err != nil {
				return nil, err
			}
			// Do contains per-attempt panics, so a crashing data service
			// is retried like any other transient fault.
			out, err := Do(ctx, g.cfg, g.n, op, func(ctx context.Context) (xdm.Sequence, error) {
				return fn(ctx, args)
			})
			br.Record(err)
			return out, err
		}
	}
}
