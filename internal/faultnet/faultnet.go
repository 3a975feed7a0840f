// Package faultnet is the chaos layer of the resilience net: it wraps the
// two remote surfaces of the platform — the catalog metadata source and
// the engine's data service functions — and injects the failures a real
// deployment sees on the wire: transient errors, permanent errors, latency
// spikes, stalls that hang until cancelled, truncated row sequences, and
// outright panics.
//
// Injection is deterministic. Each call site (one metadata table, one data
// service function) keeps its own call counter, and the fault decision for
// call n at site s is a pure function of (Seed, s, n) — independent of
// goroutine interleaving, so a soak test that replays the same queries
// under the same seed sees the same faults, even under -race with worker
// pools.
package faultnet

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// KindTransient is a retryable failure (network blip).
	KindTransient Kind = iota
	// KindPermanent is a deterministic failure retries cannot fix.
	KindPermanent
	// KindLatency delays the call by the configured spike duration.
	KindLatency
	// KindStall hangs until the caller's context is cancelled (bounded by
	// the stall watchdog so an uncancellable caller cannot deadlock).
	KindStall
	// KindTruncate returns a prefix of the real row sequence together
	// with a transient error, modeling a connection dropped mid-stream.
	KindTruncate
	// KindPanic panics inside the call, exercising recovery boundaries.
	KindPanic

	numKinds int = iota
)

// String returns the kind's display name.
func (k Kind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case KindPermanent:
		return "permanent"
	case KindLatency:
		return "latency"
	case KindStall:
		return "stall"
	case KindTruncate:
		return "truncate"
	case KindPanic:
		return "panic"
	default:
		return "unknown"
	}
}

// Error is an injected failure. It implements the Transient/Fault
// classification interfaces the resilience layer keys off.
type Error struct {
	Site string
	Kind Kind
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("faultnet: injected %s fault at %s", e.Kind, e.Site)
}

// Transient reports whether a retry may succeed.
func (e *Error) Transient() bool {
	return e.Kind == KindTransient || e.Kind == KindTruncate
}

// Fault marks injected errors as infrastructure faults for breakers.
func (e *Error) Fault() bool { return true }

// Config parameterizes an Injector.
type Config struct {
	// Seed selects the deterministic fault schedule.
	Seed uint64
	// Rate is the per-call fault probability in [0, 1].
	Rate float64
	// Latency is the spike duration for KindLatency (default 2ms).
	Latency time.Duration
	// StallTimeout bounds KindStall for callers without a deadline
	// (default 30s); the stall then resolves to a transient error.
	StallTimeout time.Duration
	// Kinds restricts injection to the listed kinds; empty means all.
	Kinds []Kind
}

// Injector decides, per call site and call number, whether and how to
// misbehave. One Injector is shared by all wrapped surfaces so its
// registry shows the whole deployment's fault points.
type Injector struct {
	cfg      Config
	kinds    []Kind
	rateBits atomic.Uint64 // Config.Rate as Float64bits, adjustable mid-run

	mu    sync.Mutex
	sites map[string]*site

	// siteRates holds per-prefix rate overrides (longest prefix wins),
	// letting a chaos test take one backend hard-down while the rest of
	// the deployment runs at the base rate.
	rateMu    sync.RWMutex
	siteRates []siteRate
}

// siteRate is one per-prefix rate override.
type siteRate struct {
	prefix string
	rate   float64
}

// site is one registered fault point.
type site struct {
	name     string
	hash     uint64
	calls    atomic.Int64
	seq      atomic.Uint64
	injected [numKinds]atomic.Int64
}

// New builds an injector. A Rate of zero is valid: every surface stays
// wrapped (the registry still records call counts) but no fault fires —
// the control arm of fault-sweep benchmarks.
func New(cfg Config) *Injector {
	if cfg.Latency <= 0 {
		cfg.Latency = 2 * time.Millisecond
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 30 * time.Second
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{KindTransient, KindPermanent, KindLatency, KindStall, KindTruncate, KindPanic}
	}
	inj := &Injector{cfg: cfg, kinds: kinds, sites: make(map[string]*site)}
	inj.rateBits.Store(math.Float64bits(cfg.Rate))
	return inj
}

// SetRate changes the fault probability mid-run — how a soak takes a
// healthy deployment hard-down (rate 1) or heals it (rate 0) without
// rebuilding the wrapped surfaces. Site counters keep running, so the
// schedule stays deterministic for a fixed sequence of rate changes.
func (inj *Injector) SetRate(rate float64) {
	inj.rateBits.Store(math.Float64bits(rate))
}

// Rate returns the current fault probability.
func (inj *Injector) Rate() float64 {
	return math.Float64frombits(inj.rateBits.Load())
}

// SetSiteRate overrides the fault probability for every site whose name
// starts with prefix ("ds/billing/" takes one backend's data services
// hard-down without touching the rest). The longest matching prefix wins;
// setting a negative rate removes the override. The schedule stays
// deterministic: overrides change only the acceptance threshold, not the
// per-site counters or the pseudo-random stream.
func (inj *Injector) SetSiteRate(prefix string, rate float64) {
	inj.rateMu.Lock()
	defer inj.rateMu.Unlock()
	for i, sr := range inj.siteRates {
		if sr.prefix == prefix {
			if rate < 0 {
				inj.siteRates = append(inj.siteRates[:i], inj.siteRates[i+1:]...)
			} else {
				inj.siteRates[i].rate = rate
			}
			return
		}
	}
	if rate < 0 {
		return
	}
	inj.siteRates = append(inj.siteRates, siteRate{prefix: prefix, rate: rate})
}

// rateFor resolves the effective rate for a site name: the longest
// matching prefix override, or the global rate when none matches.
func (inj *Injector) rateFor(name string) float64 {
	inj.rateMu.RLock()
	defer inj.rateMu.RUnlock()
	rate := inj.Rate()
	best := -1
	for _, sr := range inj.siteRates {
		if len(sr.prefix) > best && len(sr.prefix) <= len(name) && name[:len(sr.prefix)] == sr.prefix {
			best = len(sr.prefix)
			rate = sr.rate
		}
	}
	return rate
}

func (inj *Injector) site(name string) *site {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	s, ok := inj.sites[name]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(name))
		s = &site{name: name, hash: h.Sum64()}
		inj.sites[name] = s
	}
	return s
}

// splitmix64 is the finalizer from Vigna's SplitMix64 — enough mixing to
// turn (seed ^ site ^ counter) into an independent-looking stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll decides call n's fate at a site: the returned Kind is valid only
// when inject is true. allowed filters the kinds this surface can express.
func (inj *Injector) roll(s *site, allowed []Kind) (Kind, bool) {
	s.calls.Add(1)
	n := s.seq.Add(1)
	rate := inj.rateFor(s.name)
	if rate <= 0 {
		return 0, false
	}
	r := splitmix64(inj.cfg.Seed ^ s.hash ^ n)
	// 53 uniform bits → [0,1).
	if float64(r>>11)/float64(1<<53) >= rate {
		return 0, false
	}
	kinds := allowed
	if len(kinds) == 0 {
		kinds = inj.kinds
	}
	k := kinds[splitmix64(r)%uint64(len(kinds))]
	s.injected[k].Add(1)
	return k, true
}

// allowedFor intersects the injector's configured kinds with what a
// surface can express (metadata lookups have no row stream to truncate).
func (inj *Injector) allowedFor(exclude ...Kind) []Kind {
	out := make([]Kind, 0, len(inj.kinds))
	for _, k := range inj.kinds {
		skip := false
		for _, x := range exclude {
			if k == x {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, k)
		}
	}
	return out
}

// delay waits for d or the context, whichever first.
func delay(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// perform executes one injected fault (except truncation, which the data
// wrapper handles inline because it needs the real rows). The returned
// error is nil for pure-latency faults.
func (inj *Injector) perform(ctx context.Context, st *site, k Kind) error {
	switch k {
	case KindTransient, KindTruncate:
		return &Error{Site: st.name, Kind: KindTransient}
	case KindPermanent:
		return &Error{Site: st.name, Kind: KindPermanent}
	case KindLatency:
		return delay(ctx, inj.cfg.Latency)
	case KindStall:
		if err := delay(ctx, inj.cfg.StallTimeout); err != nil {
			return err // cancelled — the expected way out of a stall
		}
		// Watchdog fired: an uncancellable caller gets a transient error
		// rather than a deadlock.
		return &Error{Site: st.name, Kind: KindStall}
	case KindPanic:
		panic(fmt.Sprintf("faultnet: injected panic at %s", st.name))
	}
	return nil
}

// Roll registers (on first use) and rolls an ad-hoc named fault point —
// how surfaces outside the built-in metadata/data wrappers join the net
// (the network server's srv/* request sites). The returned Kind is valid
// only when inject is true; the caller then realizes it with Perform, or
// handles it inline when the fault needs the caller's data (truncation).
func (inj *Injector) Roll(name string, exclude ...Kind) (Kind, bool) {
	return inj.roll(inj.site(name), inj.allowedFor(exclude...))
}

// Perform realizes one rolled fault at a named point: transient/permanent
// return their typed errors, latency sleeps and returns nil, a stall hangs
// until the context is cancelled (bounded by the watchdog), and a panic
// panics — callers are expected to sit behind a recovery boundary, as the
// server's handlers do. KindTruncate returns the transient error; the
// caller is responsible for shortening its own payload first.
func (inj *Injector) Perform(ctx context.Context, name string, k Kind) error {
	return inj.perform(ctx, inj.site(name), k)
}

// Source wraps a metadata source in the chaos layer. Each table reference
// is its own fault point ("meta/CATALOG.SCHEMA.TABLE").
func (inj *Injector) Source(inner catalog.Source) catalog.Source {
	return &faultSource{inj: inj, inner: inner}
}

// SourceNamed wraps one federation backend's metadata source, prefixing
// its fault points with the backend name ("meta/billing/CATALOG.TABLE")
// so SetSiteRate can target a single backend's metadata plane.
func (inj *Injector) SourceNamed(name string, inner catalog.Source) catalog.Source {
	return &faultSource{inj: inj, inner: inner, prefix: "meta/" + name + "/"}
}

type faultSource struct {
	inj    *Injector
	inner  catalog.Source
	prefix string // "" means the default "meta/" prefix
}

func (f *faultSource) Lookup(ref catalog.TableRef) (*catalog.TableMeta, error) {
	return f.LookupContext(context.Background(), ref)
}

func (f *faultSource) LookupContext(ctx context.Context, ref catalog.TableRef) (*catalog.TableMeta, error) {
	prefix := f.prefix
	if prefix == "" {
		prefix = "meta/"
	}
	st := f.inj.site(prefix + ref.String())
	// Metadata lookups return a single struct — nothing to truncate.
	if k, ok := f.inj.roll(st, f.inj.allowedFor(KindTruncate)); ok {
		if err := f.inj.perform(ctx, st, k); err != nil {
			return nil, err
		}
	}
	return catalog.LookupContext(ctx, f.inner, ref)
}

func (f *faultSource) Tables() ([]*catalog.TableMeta, error)     { return f.inner.Tables() }
func (f *faultSource) Procedures() ([]*catalog.TableMeta, error) { return f.inner.Procedures() }

// Middleware returns the engine middleware injecting faults into data
// service calls. Install it before the resilience middleware so defenses
// wrap faults, not the other way around.
func (inj *Injector) Middleware() xqeval.Middleware {
	return func(name string, fn xqeval.ContextFunc) xqeval.ContextFunc {
		return func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			st := inj.site("ds/" + name)
			k, ok := inj.roll(st, nil)
			if !ok {
				return fn(ctx, args)
			}
			if k == KindTruncate {
				rows, err := fn(ctx, args)
				if err != nil {
					return nil, err
				}
				// A dropped connection mid-stream: some rows arrived, then
				// the transient error. Never silent — the partial sequence
				// always travels with the error, so no caller can mistake
				// it for a complete result.
				return rows[:len(rows)/2], &Error{Site: st.name, Kind: KindTruncate}
			}
			if err := inj.perform(ctx, st, k); err != nil {
				return nil, err
			}
			return fn(ctx, args) // latency spike resolved; real call proceeds
		}
	}
}

// SiteReport is one fault point's registry entry.
type SiteReport struct {
	Name  string
	Calls int64
	// Injected[k] counts injections of Kind(k).
	Injected [6]int64
}

// Total sums the site's injections across kinds.
func (r SiteReport) Total() int64 {
	var n int64
	for _, v := range r.Injected {
		n += v
	}
	return n
}

// Report lists every registered fault point, sorted by name.
func (inj *Injector) Report() []SiteReport {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]SiteReport, 0, len(inj.sites))
	for _, s := range inj.sites {
		r := SiteReport{Name: s.name, Calls: s.calls.Load()}
		for k := 0; k < numKinds; k++ {
			r.Injected[k] = s.injected[k].Load()
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
