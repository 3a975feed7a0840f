package translator

// This file is the translator's only tie to the SQL-92 front end: the
// historical Translate* entry points, which fix the dialect to SQL. The
// kernel itself (every other non-test file in this package) consumes
// only the frontend-neutral AST in internal/qfront — a boundary test
// (TestKernelImportBoundary) pins this file as the sole exception.

import (
	"context"

	"repro/internal/obsv"
	"repro/internal/sqlparser"
)

// Translate runs all three stages over a SQL SELECT statement.
func (t *Translator) Translate(sql string) (*Result, error) {
	return t.TranslateTraced(sql, nil)
}

// TranslateContext is Translate under a cancelable context: stage two's
// metadata fetches observe cancellation and deadline expiry.
func (t *Translator) TranslateContext(ctx context.Context, sql string) (*Result, error) {
	return t.TranslateTracedContext(ctx, sql, nil)
}

// TranslateTraced is Translate with stage observation: each pipeline stage
// (lex, parse, semantic-validate, restructure, generate) is recorded as a
// span on tr with wall time, sizes, and stage detail. A nil
// trace is valid and costs nothing beyond the untraced path.
func (t *Translator) TranslateTraced(sql string, tr *obsv.Trace) (*Result, error) {
	return t.TranslateTracedContext(context.Background(), sql, tr)
}

// TranslateTracedContext combines context propagation with stage tracing —
// the driver's SQL entry point. Other dialects enter through
// TranslateFrontend.
func (t *Translator) TranslateTracedContext(ctx context.Context, sql string, tr *obsv.Trace) (*Result, error) {
	return t.TranslateFrontend(ctx, sqlparser.Front{}, sql, tr)
}
