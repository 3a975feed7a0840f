package aqualogic

import (
	"context"
	"fmt"
	"time"

	"repro/internal/driver"
	"repro/internal/resultset"
)

// session is the platform as the database/sql driver sees it: one is
// registered per RegisterDriver name. It holds nothing but the platform,
// so every call reads the current metadata stack, compile cache and
// resilience settings.
type session struct{ *Platform }

// Prepare implements driver.Session: the facade's compile step.
func (s session) Prepare(ctx context.Context, dialect Dialect, text string, mode ResultMode) (driver.Prepared, error) {
	cq, _, err := s.compile(ctx, dialect, text, mode)
	if err != nil {
		return nil, err
	}
	return prepared{s.Platform, cq}, nil
}

// prepared executes one compiled statement through the facade's tail.
type prepared struct {
	p  *Platform
	cq *CompiledQuery
}

func (st prepared) Columns() []resultset.Column { return st.cq.Columns }

func (st prepared) ParamCount() int { return st.cq.Res.ParamCount }

// Execute traces the evaluation into the platform's stage histograms, so
// database/sql statements appear in its Stats.
func (st prepared) Execute(ctx context.Context, args ...any) (*Rows, error) {
	return st.p.execute(ctx, st.cq, args, st.p.trace(st.cq.SQL))
}

// Call implements driver.Session.
func (s session) Call(ctx context.Context, namespace, name string, args []Sequence) (Sequence, error) {
	return s.Engine.CallContext(ctx, namespace, name, args)
}

// QueryTimeout implements driver.Session: EnableResilience's default
// statement deadline.
func (s session) QueryTimeout() time.Duration {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if s.resilience == nil {
		return 0
	}
	return s.resilience.QueryTimeout
}

// Explain implements driver.Session. It resolves the statement through the
// compile cache — compiling only when no artifact exists, exactly like
// Prepare — and renders the artifact with this call's compile- and
// catalog-cache effects. EXPLAIN of a statement the platform has already
// compiled performs no translation at all.
func (s session) Explain(ctx context.Context, dialect Dialect, text string, mode ResultMode) ([]string, error) {
	before := s.MetadataStats()
	cq, hit, err := s.compile(ctx, dialect, text, mode)
	if err != nil {
		return nil, err
	}
	after := s.MetadataStats()
	status := "miss (compiled now)"
	if hit {
		status = "hit (stage trace below is the original compile's)"
	}
	return cq.Explain("-- compile cache: "+status,
		fmt.Sprintf("-- catalog cache: hits=%d misses=%d (platform totals: hits=%d misses=%d)",
			after.Hits-before.Hits, after.Misses-before.Misses, after.Hits, after.Misses)), nil
}
