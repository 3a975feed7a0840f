// Package translator implements the paper's primary contribution: the
// SQL-92 SELECT → XQuery translator at the heart of the AquaLogic DSP JDBC
// driver (§3 of the paper).
//
// Translation is progressive and step-wise (§3.4.1):
//
//	stage one   — syntactic recognition: a query front end (SQL-92 in
//	              internal/sqlparser; any qfront.Frontend) lexes and parses
//	              its concrete syntax into the shared typed AST
//	              (internal/qfront) and a query-context tree is captured
//	              (one context per (sub)query, §3.4.3);
//	stage two   — semantic preparation: table metadata is fetched (and
//	              cached) from the catalog, wildcards are expanded, column
//	              references are resolved and validated, GROUP BY rules are
//	              checked, and expression datatypes are inferred bottom-up
//	              with SQL promotion rules (§3.5);
//	stage three — generation: each resultset node (RSN — table, query, join,
//	              set operation; §3.4.2) renders itself into an XQuery
//	              expression, and the pieces are assembled into a prolog of
//	              schema imports plus a RECORDSET-constructing body.
//
// The translator deliberately does not optimize the generated XQuery; the
// paper leaves optimization to the XQuery engine. It generates "patterned"
// queries — the shapes shown in the paper's Examples 4–12 — that an engine
// can recognize and rewrite.
package translator

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/obsv"
	"repro/internal/qfront"
	"repro/internal/xquery"
)

// ResultMode selects the result-handling strategy of §4.
type ResultMode int

const (
	// ModeXML returns the natural RECORDSET/RECORD XML (the baseline the
	// paper's prototype started with).
	ModeXML ResultMode = iota
	// ModeText wraps the query so it returns delimiter-separated text
	// (§4's optimization): rows prefixed with the row delimiter, column
	// values prefixed with the column delimiter, values escaped with
	// fn-bea:xml-escape so delimiters cannot appear in data.
	ModeText
)

// Default §4 delimiters: each row starts with '>' and each column value is
// prefixed by '<' (the characters are safe because values are XML-escaped).
const (
	RowDelimiter    = ">"
	ColumnDelimiter = "<"
)

// Options configures a translation.
type Options struct {
	Mode ResultMode
	// DefaultCatalog is the application name unqualified tables belong
	// to; used only for validating fully qualified names.
	DefaultCatalog string
}

// ResultColumn describes one column of the translated query's result, in
// projection order — the computed result schema the JDBC driver uses to
// parse text-encoded results and answer ResultSetMetaData calls.
type ResultColumn struct {
	// Label is the JDBC column label: the alias when given, else the bare
	// column name, else a generated EXPR<n> name.
	Label string
	// ElementName is the XML element name used in RECORD output, which
	// preserves qualification the way the paper does
	// (<CUSTOMERS.CUSTOMERID>).
	ElementName string
	Type        catalog.SQLType
	Nullable    bool
	// Precision and Scale are declared column facets (zero for computed
	// expressions), surfaced through database/sql ColumnTypes.
	Precision int
	Scale     int
}

// Result is a completed translation.
type Result struct {
	// Query is the generated XQuery AST; Result.XQuery() serializes it.
	Query *xquery.Query
	// Columns is the computed result schema.
	Columns []ResultColumn
	// ParamCount is the number of `?` markers; the driver binds external
	// variables $p1…$pN at execution time.
	ParamCount int
	// ParamTypes holds the inferred SQL type of each parameter (SQLUnknown
	// when the context did not determine one).
	ParamTypes []catalog.SQLType
	// Contexts is the query-context tree captured in stage one (exposed
	// for inspection and tests; Figure 4 of the paper).
	Contexts *Context
	// Mode records which result handling the query was generated for.
	Mode ResultMode
	// Sources lists the federation backends the statement's base tables
	// and procedures resolved against, in first-touch order with
	// duplicates removed (nil when the metadata source does not name
	// sources — the single-backend configuration).
	Sources []string
}

// XQuery renders the generated query as text, anew on every call: a
// translation keeps no text, so compiling one never pays for it and a
// cached Result read by many sessions holds no mutable state.
func (r *Result) XQuery() string { return r.Query.Serialize() }

// Translator converts SQL-92 SELECT statements into XQuery. Metadata is
// fetched through Meta; wrap the source in a catalog.Cache to reproduce the
// driver's fetch-and-cache behavior.
type Translator struct {
	Meta    catalog.Source
	Options Options
}

// New builds a translator over a metadata source with default options.
func New(meta catalog.Source) *Translator {
	return &Translator{Meta: meta}
}

// SemanticError is a stage-two validation failure: syntactically valid SQL
// that violates SQL semantics (unknown column, ambiguous name, GROUP BY
// violations, set-operation arity mismatch, …).
type SemanticError struct {
	Pos qfront.Pos
	Msg string
}

func (e *SemanticError) Error() string {
	return fmt.Sprintf("sql semantic error at %s: %s", e.Pos, e.Msg)
}

func semErr(pos qfront.Pos, format string, args ...any) error {
	return &SemanticError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// TranslateFrontend runs the full pipeline with an explicit query front
// end: stage one (lex + parse, with its own stage spans) is delegated to
// fe, and the statement it emits flows through the front-end-agnostic
// kernel (stages two and three). This is the seam every dialect enters
// through; the SQL-language helpers in sqldefault.go are wrappers over
// it.
func (t *Translator) TranslateFrontend(ctx context.Context, fe qfront.Frontend, text string, tr *obsv.Trace) (*Result, error) {
	stmt, err := fe.Parse(text, tr)
	if err != nil {
		return nil, err
	}
	return t.translateStmt(ctx, stmt, tr)
}

// TranslateStmt translates an already-parsed statement (used by the driver,
// which parses once to count parameters and validate early).
func (t *Translator) TranslateStmt(stmt *qfront.SelectStmt) (*Result, error) {
	return t.translateStmt(context.Background(), stmt, nil)
}

func (t *Translator) translateStmt(ctx context.Context, stmt *qfront.SelectStmt, tr *obsv.Trace) (*Result, error) {
	// Stage one's semantic capture: the query-context tree (§3.4.3).
	sp := tr.StartStage(obsv.StageValidate)
	contexts := CaptureContexts(stmt)
	sp.Add("contexts", int64(contexts.Count()))
	sp.End()

	// Stages two and three share the generation state: stage two resolves
	// and validates as each RSN is prepared, stage three renders it. The
	// restructure span covers that combined RSN preparation.
	g := newGenerator(ctx, t.Meta, t.Options, contexts)
	sp = tr.StartStage(obsv.StageRestructure)
	rows, cols, err := g.genSelectStmt(stmt, nil)
	if err != nil {
		return nil, err
	}
	sp.Add("tables", g.stat.tables)
	sp.Add("wildcards", g.stat.wildcards)
	sp.Add("variables", int64(g.names.n))
	sp.End()

	// Generate: assemble the prolog, result wrapper, and computed schema.
	sp = tr.StartStage(obsv.StageGenerate)
	body := recordsetCtor(rows)
	q := &xquery.Query{Body: body}
	resultCols := make([]ResultColumn, len(cols))
	for i, c := range cols {
		resultCols[i] = ResultColumn{
			Label:       c.Label,
			ElementName: c.ElementName,
			Type:        c.SQL,
			Nullable:    c.Nullable,
			Precision:   c.Precision,
			Scale:       c.Scale,
		}
	}
	if t.Options.Mode == ModeText {
		q.Body = wrapTextMode(body, resultCols)
	}
	q.Prolog.SchemaImports = g.schemaImports()
	res := &Result{
		Query:      q,
		Columns:    resultCols,
		ParamCount: stmt.ParamCount,
		ParamTypes: g.paramTypes(stmt.ParamCount),
		Contexts:   contexts,
		Mode:       t.Options.Mode,
		Sources:    g.sources,
	}
	sp.Add("columns", int64(len(resultCols)))
	sp.Add("imports", int64(len(q.Prolog.SchemaImports)))
	sp.End()
	return res, nil
}

// recordsetCtor wraps a row-sequence expression in the RECORDSET element
// the paper's generated queries return.
func recordsetCtor(rows xquery.Expr) *xquery.ElementCtor {
	return &xquery.ElementCtor{Name: "RECORDSET", Content: []xquery.ElemContent{
		&xquery.Enclosed{Expr: rows},
	}}
}
