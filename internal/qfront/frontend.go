package qfront

import (
	"fmt"

	"repro/internal/obsv"
)

// Dialect names a query language. SQL-92 is the only one; the name
// survives for callers that still pass it (benchmark/aqlbench's layer
// timings call Lookup(DialectSQL)) until ROADMAP item 1(c) moves them off.
type Dialect string

// DialectSQL is the SQL-92 front end's name.
const DialectSQL Dialect = "sql"

// Frontend is the query front end: stage one of the paper's three-stage
// pipeline, factored out so the kernel (stages two and three) never sees
// concrete syntax. It owns the lexer and parser, reports errors with
// positions in the query text, and emits the typed AST.
type Frontend interface {
	// Parse lexes and parses query text into the AST. It records its
	// own stage spans (lex, parse) on tr — a nil trace is valid and must
	// cost nothing. Errors are typed with positions in the text.
	Parse(text string, tr *obsv.Trace) (*SelectStmt, error)

	// Normalize returns the canonical cache-key form of query text:
	// whitespace/comment/case differences that cannot change meaning
	// collapse to one spelling. It must be cheap relative to Parse and
	// fail on text that does not lex.
	Normalize(text string) (string, error)
}

// sqlFront is the SQL-92 front end, installed by internal/sqlparser at
// init (that package imports this one, so it cannot be named here).
var sqlFront Frontend

// Register installs the SQL-92 front end; internal/sqlparser calls it
// from an init function.
func Register(f Frontend) { sqlFront = f }

// Lookup returns the SQL-92 front end for DialectSQL and an error for
// any other name. It stays for benchmark/aqlbench until ROADMAP item 1(c)
// moves it off.
func Lookup(d Dialect) (Frontend, error) {
	if d != DialectSQL {
		return nil, fmt.Errorf("unknown query dialect %q (only %q)", d, DialectSQL)
	}
	return sqlFront, nil
}
