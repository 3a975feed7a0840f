package remoteclient

import (
	"context"
	"time"

	"repro/internal/aqerr"
	"repro/internal/obsv"
	"repro/internal/resilient"
)

// Options tunes the client-side resilience net every Client carries.
// Zero fields take the defaults below; Dial and Loopback use all
// defaults, DialOptions and LoopbackOptions take explicit knobs.
//
// Retries apply only to idempotent verbs. The catalog and stats verbs
// are read-only; execute is idempotent because every request carries an
// exec key the server replays the same open cursor for (a result that
// ended in its first chunk is read again: the platform is read-only);
// fetch is idempotent
// because every chunk carries a sequence number the server replays
// byte-identically. CREATE VIEW is the one non-idempotent verb and is
// never retried.
type Options struct {
	// MaxRetries is the number of re-attempts after the first failure of
	// an idempotent verb (default 3; negative disables retries).
	MaxRetries int
	// BaseBackoff is the first retry's backoff; attempt n waits
	// ~BaseBackoff·2ⁿ⁻¹ with deterministic jitter. A server Retry-After
	// hint overrides the schedule for that attempt (default 2ms).
	BaseBackoff time.Duration
	// BreakerThreshold is the consecutive transport-fault count that
	// opens this client's per-server circuit breaker (default 5;
	// negative disables it). Only failures with no server verdict —
	// refused connections, resets, damaged response bodies — count;
	// any typed server reply, including a shed, proves the server alive
	// and closes the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the open breaker waits before letting
	// a half-open probe through (default 100ms).
	BreakerCooldown time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 2 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 100 * time.Millisecond
	}
	return o
}

// retryable reports whether an idempotent verb should re-attempt after
// err: transport-level transient failures, and typed sheds carrying a
// Retry-After hint (the server explicitly invited the retry). Unhinted
// unavailables (open breaker, session gone) are not retried in place —
// per the aqerr contract they are retriable only from scratch.
func retryable(err error) bool {
	return aqerr.Transient(err) || aqerr.RetryAfterHint(err) > 0
}

// breakerFault filters one verb outcome for the per-server breaker.
// Only transient-kind failures — the classification post gives every
// exchange that died without a server verdict — count as faults. Any
// other outcome (success, typed shed, permanent error, caller
// cancellation) proves nothing is wrong with the path to the server and
// resets the consecutive-fault count.
func breakerFault(err error) error {
	if err == nil || !aqerr.Transient(err) {
		return nil
	}
	return err
}

// postRetry is the resilient form of Client.post. Each attempt decodes
// into a fresh response value so a half-decoded failure never pollutes
// the retry's result.
func postRetry[Resp any](ctx context.Context, c *Client, op, path string, in any, idempotent bool) (Resp, error) {
	var zero, resp Resp
	err := c.retry(ctx, op, idempotent, func() error {
		resp = zero
		return c.post(ctx, op, path, in, &resp)
	})
	if err != nil {
		return zero, err
	}
	return resp, nil
}

// retries and rescued count the retry attempts beyond the first try, and
// the operations they rescued, of every client in the process. They are
// the one process-wide pair of counters left: their reader, Retries,
// takes no client.
var retries, rescued obsv.Counter

// RetryStats are the remote clients' retry counters.
type RetryStats struct {
	RemoteRetries        int64
	RemoteRetrySuccesses int64
}

// Retries reports the retry counters of every client in the process.
func Retries() RetryStats {
	return RetryStats{RemoteRetries: retries.Load(), RemoteRetrySuccesses: rescued.Load()}
}

// retry runs one exchange behind the breaker gate, then up to
// 1+MaxRetries attempts for idempotent verbs, backing off between
// attempts (honoring a server Retry-After hint over the local schedule).
func (c *Client) retry(ctx context.Context, op string, idempotent bool, attempt func() error) error {
	if err := c.br.Allow(); err != nil {
		return err
	}
	var lastErr error
	for n := 0; ; n++ {
		if n > 0 {
			retries.Inc()
			delay := aqerr.RetryAfterHint(lastErr)
			if delay <= 0 {
				delay = resilient.Backoff(c.opts.BaseBackoff, n, op+" "+c.base)
			}
			if err := sleepCtx(ctx, delay); err != nil {
				return aqerr.Wrap(op, err)
			}
		}
		err := attempt()
		c.br.Record(breakerFault(err))
		if err == nil {
			if n > 0 {
				rescued.Inc()
			}
			return nil
		}
		lastErr = err
		if !idempotent || n >= c.opts.MaxRetries || !retryable(err) || ctx.Err() != nil {
			return err
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Breaker is the client's per-server circuit breaker, for status
// displays (aqlshell's \r): its position, openings and fast-fails.
func (c *Client) Breaker() *resilient.Breaker { return c.br }
