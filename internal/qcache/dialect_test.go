package qcache

import (
	"context"
	"errors"
	"testing"

	"repro/internal/obsv"
	"repro/internal/qfront"
	"repro/internal/translator"
)

// collidingFront is the worst case for the cache key: two dialects whose
// Normalize output is the raw text, so two fronts given identical text
// produce identical normalized forms. Only the Dialect component of the
// key can keep their artifacts apart.
type collidingFront struct {
	d qfront.Dialect
}

func (f collidingFront) Dialect() qfront.Dialect { return f.d }

func (f collidingFront) Parse(text string, tr *obsv.Trace) (*qfront.SelectStmt, error) {
	return nil, errors.New("collidingFront does not parse")
}

func (f collidingFront) Normalize(text string) (string, error) { return text, nil }

// TestDialectSplitsTheKey is the audit ISSUE satellite (a) asks for: two
// dialects presenting byte-identical statement text — and even identical
// normalized text — must never share or clobber one cache entry.
func TestDialectSplitsTheKey(t *testing.T) {
	c := New(Config{})
	text := "identical statement text in two languages"
	alpha, beta := collidingFront{d: "alpha"}, collidingFront{d: "beta"}

	compiles := 0
	mint := func(tag string) CompileFunc {
		return func(ctx context.Context, s string) (*CompiledQuery, error) {
			compiles++
			return &CompiledQuery{SQL: tag}, nil
		}
	}
	a1, _, err := c.Get(context.Background(), alpha, text, translator.ModeText, mint("alpha artifact"))
	if err != nil {
		t.Fatal(err)
	}
	b1, _, err := c.Get(context.Background(), beta, text, translator.ModeText, mint("beta artifact"))
	if err != nil {
		t.Fatal(err)
	}
	if compiles != 2 {
		t.Fatalf("compile ran %d times, want 2 (dialects shared one entry)", compiles)
	}
	if a1 == b1 || a1.SQL == b1.SQL {
		t.Fatalf("dialects collided: %q vs %q", a1.SQL, b1.SQL)
	}

	// Each dialect's repeat lookup hits its own artifact, not the other's.
	a2, hit, err := c.Get(context.Background(), alpha, text, translator.ModeText, mint("never minted"))
	if err != nil {
		t.Fatal(err)
	}
	if !hit || a2 != a1 {
		t.Fatal("alpha's second lookup did not hit alpha's artifact")
	}
	if compiles != 2 {
		t.Fatalf("repeat lookup recompiled (%d compiles)", compiles)
	}

	// Each dialect finds its own artifact under its own key only.
	if got, hit, err := c.Get(context.Background(), beta, text, translator.ModeText, mint("never minted")); err != nil || !hit || got != b1 {
		t.Fatal("beta's lookup missed beta's artifact")
	}
	if got, hit, err := c.Get(context.Background(), collidingFront{d: "gamma"}, text, translator.ModeText, mint("gamma artifact")); err != nil || hit || got.SQL != "gamma artifact" {
		t.Fatalf("unregistered dialect found another dialect's artifact: %q", got.SQL)
	}
	if compiles != 3 {
		t.Fatalf("compile ran %d times, want 3 (one per dialect)", compiles)
	}
	if s := c.Stats(); s.Size != 3 {
		t.Fatalf("cache holds %d entries, want 3", s.Size)
	}
}
