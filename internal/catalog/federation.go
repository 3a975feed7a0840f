package catalog

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"time"
)

// Federation is the mediator-side catalog: a registry of named backends
// (each an arbitrary Source — an in-memory Application, an XML-file-backed
// one, a latency-simulating Remote, ...) presented as one Source to the
// translator and driver. A single-source deployment is a federation of
// one, so this is the only metadata stack a platform builds.
//
// Each backend gets its own client-side Cache, so the caching, single-flight
// and stale-while-revalidate behavior of §3.5 applies per source and one
// backend's invalidation or outage never churns the entries — or the
// metadata generation — of the others. Resolution of an unqualified
// TableRef consults every backend in registration order; a reference whose
// Catalog names a registered source is pinned to that backend alone, which
// is also how callers keep resolution isolated from unrelated degraded
// sources. Register backends during setup: a consumer that derives
// artifacts from the federation (the compiled-query cache) is rebuilt with
// it, so the set of backends never changes under a Stamp.
type Federation struct {
	// Name is the federation's own catalog name, used only for display.
	Name string
	// FreshFor is applied to each backend's Cache at registration time;
	// zero keeps entries fresh forever.
	FreshFor time.Duration

	mu       sync.RWMutex
	names    []string // registration order
	backends map[string]*Cache
}

// NewFederation builds an empty federation.
func NewFederation(name string) *Federation {
	return &Federation{Name: name, backends: make(map[string]*Cache)}
}

// Register adds a named backend, wrapping it in its own Cache. Registering
// a name twice replaces the backend. Source names are case-insensitive at
// resolution time.
func (f *Federation) Register(name string, src Source) {
	c := NewCache(src)
	c.FreshFor = f.FreshFor
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.backends[name]; !ok {
		f.names = append(f.names, name)
	}
	f.backends[name] = c
}

// SourceNames returns the registered source names in registration order.
func (f *Federation) SourceNames() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]string(nil), f.names...)
}

// Backend returns the named backend's Cache, or nil.
func (f *Federation) Backend(name string) *Cache {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, n := range f.names {
		if strings.EqualFold(n, name) {
			return f.backends[n]
		}
	}
	return nil
}

// InvalidateSource drops the named backend's cache entries and advances its
// metadata epoch, leaving every other source's cache and epoch untouched.
// An unknown name invalidates nothing.
func (f *Federation) InvalidateSource(name string) {
	if c := f.Backend(name); c != nil {
		c.Invalidate()
	}
}

// SourceGeneration returns the named backend's metadata epoch (zero for an
// unknown source).
func (f *Federation) SourceGeneration(name string) uint64 {
	if c := f.Backend(name); c != nil {
		return c.Generation()
	}
	return 0
}

// Stamp is the metadata stamp of a statement whose tables resolved against
// the named sources: the sum of their generations, or of every backend's
// when all is set — a name not pinned to one source read every backend's
// answer, negative ones included, so a change on any backend can change
// what it resolves to. Generations only grow, so the sum moves exactly
// when one of them does. The compiled-query cache stamps each artifact
// with it and serves the artifact only while the stamp holds.
func (f *Federation) Stamp(sources []string, all bool) uint64 {
	var sum uint64
	if all {
		names, backends := f.snapshot()
		for _, name := range names {
			sum += backends[name].Generation()
		}
		return sum
	}
	for _, s := range sources {
		sum += f.SourceGeneration(s)
	}
	return sum
}

// SourceStats returns the named backend's cache statistics.
func (f *Federation) SourceStats(name string) (CacheStats, bool) {
	if c := f.Backend(name); c != nil {
		return c.Stats(), true
	}
	return CacheStats{}, false
}

// Stats sums every backend's cache counters; SourceStats breaks them out.
func (f *Federation) Stats() CacheStats {
	var sum CacheStats
	names, backends := f.snapshot()
	for _, name := range names {
		st := backends[name].Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.StaleServes += st.StaleServes
		sum.Shared += st.Shared
		sum.Degraded = sum.Degraded || st.Degraded
	}
	return sum
}

// snapshot returns the name list and backend map for lock-free iteration.
func (f *Federation) snapshot() ([]string, map[string]*Cache) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.names, f.backends
}

// Lookup implements Source.
func (f *Federation) Lookup(ref TableRef) (*TableMeta, error) {
	return f.LookupContext(context.Background(), ref)
}

// LookupContext implements ContextSource, resolving ref across every
// registered backend. A ref whose Catalog names a registered source is
// pinned to that backend (the Catalog qualifier is consumed by the pin).
// Otherwise each backend is consulted in registration order: per-source
// not-found answers are skipped, matches from more than one source raise an
// AmbiguousError naming the sources involved, and an infrastructure failure
// from any backend propagates — resolution cannot be known complete without
// that backend's answer. (Per-source caches absorb such failures after
// warm-up: cached negative answers are authoritative.) A match costs no
// allocation beyond the backend's own answer.
func (f *Federation) LookupContext(ctx context.Context, ref TableRef) (*TableMeta, error) {
	names, backends := f.snapshot()

	if ref.Catalog != "" {
		for _, name := range names {
			if strings.EqualFold(ref.Catalog, name) {
				pinned := ref
				pinned.Catalog = ""
				meta, err := LookupContext(ctx, backends[name], pinned)
				if err != nil {
					return nil, ownAmbiguity(err, name, len(names))
				}
				return stampMeta(meta, name), nil
			}
		}
	}

	type hit struct {
		source string
		meta   *TableMeta
	}
	var buf [2]hit // on the stack: one match is the common answer
	hits := buf[:0]
	var ambErr error
	var ambSchemas []string
	var ambSources []string
	for _, name := range names {
		meta, err := LookupContext(ctx, backends[name], ref)
		if err == nil {
			hits = append(hits, hit{source: name, meta: meta})
			continue
		}
		amb, answered := negativeAnswer(err)
		switch {
		case !answered:
			return nil, err
		case amb != nil:
			ambErr = err
			ambSchemas = append(ambSchemas, amb.Schemas...)
			ambSources = append(ambSources, name)
		}
		// Otherwise this source simply doesn't have the table.
	}

	if len(hits) == 1 && len(ambSources) == 0 {
		return stampMeta(hits[0].meta, hits[0].source), nil
	}
	if len(hits) == 0 && len(ambSources) == 0 {
		return nil, &NotFoundError{Ref: ref}
	}
	if len(hits) == 0 && len(ambSources) == 1 {
		return nil, ownAmbiguity(ambErr, ambSources[0], len(names))
	}
	schemas := ambSchemas
	sources := ambSources
	for _, h := range hits {
		schemas = append(schemas, h.meta.Schema)
		sources = append(sources, h.source)
	}
	sort.Strings(schemas)
	// Sources stay in registration order (ambiguous-within first, then
	// matches) — dedup while preserving that order.
	return nil, &AmbiguousError{Ref: ref, Schemas: schemas, Sources: dedupInOrder(sources)}
}

// negativeAnswer reports whether a backend's lookup error is an
// authoritative answer about the name — not-found, or the ambiguity it
// returns — rather than an infrastructure failure.
func negativeAnswer(err error) (*AmbiguousError, bool) {
	switch e := err.(type) {
	case *NotFoundError:
		return nil, true
	case *AmbiguousError:
		return e, true
	}
	var nf *NotFoundError
	if errors.As(err, &nf) {
		return nil, true
	}
	var amb *AmbiguousError
	if errors.As(err, &amb) {
		return amb, true
	}
	return nil, false
}

// ownAmbiguity attributes an ambiguity wholly inside one backend to that
// backend's registered name, when there are other backends to tell it
// from; a federation of one answers exactly as its backend does. Other
// errors pass through.
func ownAmbiguity(err error, source string, backends int) error {
	if backends < 2 {
		return err
	}
	if amb, ok := negativeAnswer(err); ok && amb != nil {
		schemas := append([]string(nil), amb.Schemas...)
		sort.Strings(schemas)
		return &AmbiguousError{Ref: amb.Ref, Schemas: schemas, Sources: []string{source}}
	}
	return err
}

// Tables implements Source: the concatenation of every backend's listing in
// registration order (each backend's own listing is already sorted), every
// entry stamped with its source name — a deterministic ordering for
// DatabaseMetaData browsing.
func (f *Federation) Tables() ([]*TableMeta, error) {
	return f.list(func(c *Cache) ([]*TableMeta, error) { return c.Tables() })
}

// Procedures implements Source.
func (f *Federation) Procedures() ([]*TableMeta, error) {
	return f.list(func(c *Cache) ([]*TableMeta, error) { return c.Procedures() })
}

// list concatenates the backends' listings. A first listing whose entries
// already name their source is used as is, so a federation of one lists at
// the cost of its backend.
func (f *Federation) list(get func(*Cache) ([]*TableMeta, error)) ([]*TableMeta, error) {
	names, backends := f.snapshot()
	var out []*TableMeta
	for _, name := range names {
		metas, err := get(backends[name])
		if err != nil {
			return nil, err
		}
		if out == nil && namesSource(metas, name) {
			// Capped, so appending the next backend's entries copies
			// rather than writing into the backend's array.
			out = metas[:len(metas):len(metas)]
			continue
		}
		for _, m := range metas {
			out = append(out, stampMeta(m, name))
		}
	}
	return out, nil
}

// namesSource reports whether every entry is already attributed to source.
func namesSource(metas []*TableMeta, source string) bool {
	for _, m := range metas {
		if m.Source != source {
			return false
		}
	}
	return true
}

// stampMeta returns meta attributed to the registered source name: meta
// itself when it already names that source (every Application answer for
// a backend registered under the application's name), else a copy —
// backends share cached *TableMeta pointers, so the federation never
// mutates them in place.
func stampMeta(meta *TableMeta, source string) *TableMeta {
	if meta == nil || meta.Source == source {
		return meta
	}
	m := *meta
	m.Source = source
	return &m
}

func dedupInOrder(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
