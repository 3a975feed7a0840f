package aqualogic

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/qcache"
	"repro/internal/resultset"
	"repro/internal/session"
)

// Prepare implements session.Session: the statement compiles once,
// through the platform's compile cache, and executes many times.
func (p *Platform) Prepare(ctx context.Context, text string, mode ResultMode) (session.Prepared, error) {
	st := &prepared{p: p, text: text, mode: mode}
	if _, err := st.recompile(ctx); err != nil {
		return nil, err
	}
	return st, nil
}

// prepared is a statement the platform compiled. It resolves no text
// while its artifact stands: an execution checks the artifact's stamps
// (metadata, statistics and source generations) and the identity of the
// cache that issued it, since a rebuilt metadata stack gets a new cache,
// and recompiles only when one has moved on.
type prepared struct {
	p    *Platform
	text string
	mode ResultMode
	cur  atomic.Pointer[issued]
}

// issued is an artifact and the compile cache that issued it.
type issued struct {
	cq *CompiledQuery
	qc *qcache.Cache
}

func (st *prepared) Columns() []resultset.Column { return st.cur.Load().cq.Columns }

func (st *prepared) ParamCount() int { return st.cur.Load().cq.Res.ParamCount }

// Cost is the current artifact's admission score; an execution that
// recompiles is weighed by the artifact it replaces.
func (st *prepared) Cost() int64 { return st.cur.Load().cq.Cost() }

// Execute runs the statement through the facade's own tail, so prepared
// statements on every transport are counted like Query.
func (st *prepared) Execute(ctx context.Context, args ...any) (*Rows, error) {
	is := st.cur.Load()
	cq := is.cq
	if is.qc != st.p.queryCache() || !is.qc.Fresh(cq) {
		var err error
		if cq, err = st.recompile(ctx); err != nil {
			return nil, err
		}
	}
	return st.p.execute(ctx, cq, args)
}

// recompile resolves the statement through the platform's compile cache
// and swaps the result in; executions racing it keep the artifact they
// loaded. The cache is read first, so an artifact is never labelled with
// a cache newer than the one it came from.
func (st *prepared) recompile(ctx context.Context) (*CompiledQuery, error) {
	qc := st.p.queryCache()
	cq, _, err := st.p.compile(ctx, st.text, st.mode)
	if err != nil {
		return nil, err
	}
	st.cur.Store(&issued{cq: cq, qc: qc})
	return cq, nil
}

// Call implements session.Session.
func (p *Platform) Call(ctx context.Context, namespace, name string, args []Sequence) (Sequence, error) {
	return p.Engine.CallContext(ctx, namespace, name, args)
}

// QueryTimeout implements session.Session: EnableResilience's default
// statement deadline.
func (p *Platform) QueryTimeout() time.Duration {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	if p.resilience == nil {
		return 0
	}
	return p.resilience.QueryTimeout
}

// Explain implements session.Session. It resolves the statement through the
// compile cache — compiling only when no artifact exists, exactly like
// Prepare — and renders the artifact with this call's compile- and
// catalog-cache effects. EXPLAIN of a statement the platform has already
// compiled performs no translation at all.
func (p *Platform) Explain(ctx context.Context, text string, mode ResultMode) ([]string, error) {
	before := p.MetadataStats()
	cq, hit, err := p.compile(ctx, text, mode)
	if err != nil {
		return nil, err
	}
	after := p.MetadataStats()
	status := "miss (compiled now)"
	if hit {
		status = "hit (stage trace below is the original compile's)"
	}
	return cq.Explain("-- compile cache: "+status,
		fmt.Sprintf("-- catalog cache: hits=%d misses=%d (platform totals: hits=%d misses=%d)",
			after.Hits-before.Hits, after.Misses-before.Misses, after.Hits, after.Misses)), nil
}
