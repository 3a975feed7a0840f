package catalog

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// ContextSource is an optional extension of Source whose lookups observe
// context cancellation and deadlines. Sources that make (or simulate)
// remote round trips implement it so a cancelled query does not strand a
// goroutine mid-fetch.
type ContextSource interface {
	Source
	LookupContext(ctx context.Context, ref TableRef) (*TableMeta, error)
}

// LookupContext resolves ref through src on the context-aware path when
// src implements ContextSource, falling back to the plain Lookup
// otherwise. A nil ctx behaves like context.Background().
func LookupContext(ctx context.Context, src Source, ref TableRef) (*TableMeta, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cs, ok := src.(ContextSource); ok {
			return cs.LookupContext(ctx, ref)
		}
	}
	return src.Lookup(ref)
}

// Remote wraps a Source and injects a fixed latency per call, simulating
// the round trip to the AquaLogic DSP server's remote metadata API. The
// paper's design caches fetched table metadata locally precisely because
// this round trip is not free; the benchmark harness uses Remote to make
// the cache's effect measurable.
type Remote struct {
	Inner   Source
	Latency time.Duration

	mu    sync.Mutex
	calls int
}

// Lookup implements Source with simulated round-trip delay.
func (r *Remote) Lookup(ref TableRef) (*TableMeta, error) {
	return r.LookupContext(context.Background(), ref)
}

// LookupContext implements ContextSource: the simulated round trip is
// interruptible, so a cancelled query returns promptly instead of
// stranding a goroutine in time.Sleep.
func (r *Remote) LookupContext(ctx context.Context, ref TableRef) (*TableMeta, error) {
	if err := r.delay(ctx); err != nil {
		return nil, err
	}
	return LookupContext(ctx, r.Inner, ref)
}

// Tables implements Source.
func (r *Remote) Tables() ([]*TableMeta, error) {
	if err := r.delay(context.Background()); err != nil {
		return nil, err
	}
	return r.Inner.Tables()
}

// Procedures implements Source.
func (r *Remote) Procedures() ([]*TableMeta, error) {
	if err := r.delay(context.Background()); err != nil {
		return nil, err
	}
	return r.Inner.Procedures()
}

// Calls returns how many remote round trips have been made.
func (r *Remote) Calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

// delay simulates the round trip, waking early if ctx is done.
func (r *Remote) delay(ctx context.Context) error {
	r.mu.Lock()
	r.calls++
	r.mu.Unlock()
	if r.Latency <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(r.Latency)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CacheStats reports cache effectiveness and degradation state.
type CacheStats struct {
	Hits   int
	Misses int
	// StaleServes counts lookups answered from an expired entry because
	// the backend refresh failed (the §3.5 cache degrading gracefully
	// through an outage instead of failing the query).
	StaleServes int
	// Shared counts lookups that coalesced onto another goroutine's
	// in-flight fetch of the same reference (single-flight deduplication).
	Shared int
	// Degraded is true while the most recent backend fetch failed — the
	// Stats-visible staleness flag: answers may be stale until the
	// backend recovers.
	Degraded bool
}

// Cache is the client-side metadata cache of §3.5: "Fetched table metadata
// is cached locally for further use." Negative answers (not-found,
// ambiguous) are authoritative and also cached, since reporting tools
// retry bad names; backend failures are never cached as answers.
//
// Beyond plain memoization the cache provides two resilience behaviors:
//
//   - single-flight deduplication: concurrent lookups of the same
//     reference share one backend fetch;
//   - stale-while-revalidate: entries older than FreshFor are refreshed
//     on access, and if the refresh fails with a backend error the stale
//     entry is served instead (counted and flagged in Stats) — a backend
//     outage degrades metadata to stale answers, not hard failures.
//
// FreshFor zero (the default) keeps every entry fresh forever, the
// original fetch-once behavior. Cache is safe for concurrent use.
type Cache struct {
	Inner Source
	// FreshFor bounds entry freshness; zero means entries never expire.
	FreshFor time.Duration

	mu       sync.Mutex
	entries  map[TableRef]cacheEntry
	flights  map[TableRef]*flight
	stats    CacheStats
	degraded bool
	// generation counts metadata epochs: it advances when the cache is
	// invalidated, when a refresh replaces an entry with different
	// metadata, and when the backend first degrades. Consumers that derive
	// artifacts from metadata (the compiled-query cache) stamp them with
	// it, so a catalog change or outage retires every artifact compiled
	// before it. It advances under mu and is read without it.
	generation atomic.Uint64
}

type cacheEntry struct {
	meta    *TableMeta
	err     error // authoritative negative answer (not-found/ambiguous)
	fetched time.Time
}

// flight is one in-progress backend fetch; concurrent lookups of the same
// ref wait on done and share the result.
type flight struct {
	done chan struct{}
	meta *TableMeta
	err  error
}

// NewCache builds a cache over src.
func NewCache(src Source) *Cache {
	return &Cache{
		Inner:   src,
		entries: make(map[TableRef]cacheEntry),
		flights: make(map[TableRef]*flight),
	}
}

// Lookup implements Source, consulting the cache first. Hits, misses,
// shared flights and stale serves are counted once, here (Stats).
func (c *Cache) Lookup(ref TableRef) (*TableMeta, error) {
	return c.LookupContext(context.Background(), ref)
}

// LookupContext implements ContextSource.
func (c *Cache) LookupContext(ctx context.Context, ref TableRef) (*TableMeta, error) {
	c.mu.Lock()
	if e, ok := c.entries[ref]; ok && c.fresh(e) {
		c.stats.Hits++
		c.mu.Unlock()
		return e.meta, e.err
	}
	if fl, ok := c.flights[ref]; ok {
		// Another goroutine is already fetching this ref: share its result.
		c.stats.Shared++
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fl.err != nil {
			return c.serveStaleOr(ref, fl.err)
		}
		return fl.meta, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[ref] = fl
	c.stats.Misses++
	c.mu.Unlock()

	meta, err := LookupContext(ctx, c.Inner, ref)

	c.mu.Lock()
	if err == nil || authoritative(err) {
		if old, ok := c.entries[ref]; ok && !entryEquivalent(old, meta, err) {
			// A refresh changed this table's metadata: queries compiled
			// against the old answer are stale.
			c.generation.Add(1)
		}
		c.entries[ref] = cacheEntry{meta: meta, err: err, fetched: time.Now()}
		c.degraded = false
	} else {
		// A backend failure is not an answer: leave any stale entry in
		// place and flag degradation. Entering the degraded state retires
		// the current metadata epoch too — stale-served answers may no
		// longer match the backend.
		if !c.degraded {
			c.generation.Add(1)
		}
		c.degraded = true
	}
	fl.meta, fl.err = meta, err
	delete(c.flights, ref)
	c.mu.Unlock()
	close(fl.done)

	if err != nil && !authoritative(err) {
		return c.serveStaleOr(ref, err)
	}
	return meta, err
}

// fresh reports whether an entry is within its freshness window. Callers
// hold c.mu.
func (c *Cache) fresh(e cacheEntry) bool {
	return c.FreshFor <= 0 || time.Since(e.fetched) <= c.FreshFor
}

// serveStaleOr answers a failed backend fetch: if an expired entry exists
// it is served stale (counted and flagged); otherwise the failure
// propagates.
func (c *Cache) serveStaleOr(ref TableRef, fetchErr error) (*TableMeta, error) {
	if errors.Is(fetchErr, context.Canceled) || errors.Is(fetchErr, context.DeadlineExceeded) {
		// The caller gave up; stale serving is for backend outages.
		return nil, fetchErr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[ref]
	if !ok {
		return nil, fetchErr
	}
	c.stats.StaleServes++
	return e.meta, e.err
}

// entryEquivalent reports whether a freshly fetched answer matches the
// cached one — same metadata content and the same (or equally absent)
// authoritative error. First-time fetches never pass through here, so
// cache warm-up does not advance the generation.
func entryEquivalent(old cacheEntry, meta *TableMeta, err error) bool {
	if (old.err == nil) != (err == nil) {
		return false
	}
	if old.err != nil && old.err.Error() != err.Error() {
		return false
	}
	return reflect.DeepEqual(old.meta, meta)
}

// authoritative reports whether a lookup error is a definitive answer
// about the name (cacheable) rather than an infrastructure failure.
func authoritative(err error) bool {
	var nf *NotFoundError
	var amb *AmbiguousError
	return errors.As(err, &nf) || errors.As(err, &amb)
}

// Tables implements Source (pass-through; listing is a browsing operation,
// not on the per-query hot path).
func (c *Cache) Tables() ([]*TableMeta, error) { return c.Inner.Tables() }

// Procedures implements Source (pass-through).
func (c *Cache) Procedures() ([]*TableMeta, error) { return c.Inner.Procedures() }

// Stats returns a snapshot of hit/miss/degradation counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Degraded = c.degraded
	return s
}

// Invalidate drops every cached entry (e.g. after a data service
// redeployment), clears the degradation flag, and advances the metadata
// generation.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[TableRef]cacheEntry)
	c.degraded = false
	c.generation.Add(1)
}

// Generation returns the current metadata epoch. It advances on
// Invalidate, on a refresh that changes an entry, and on the transition
// into the degraded state; derived-artifact caches stamp with it.
func (c *Cache) Generation() uint64 {
	return c.generation.Load()
}
