package translator

// This file is the translator's only tie to the SQL-92 front end: the
// historical Translate entry point, which names the parser. The
// kernel itself (every other non-test file in this package) consumes
// only the frontend-neutral AST in internal/qfront — a boundary test
// (TestKernelImportBoundary) pins this file as the sole exception.

import (
	"context"

	"repro/internal/sqlparser"
)

// Translate runs all three stages over a SQL SELECT statement. Traced
// and cancelable translations enter through TranslateFrontend.
func (t *Translator) Translate(sql string) (*Result, error) {
	return t.TranslateFrontend(context.Background(), sqlparser.Front{}, sql, nil)
}
