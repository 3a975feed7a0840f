package translator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/qfront"
	"repro/internal/xquery"
)

// generator holds the shared state of stages two and three: the metadata
// source, the accumulated schema imports, the variable name generator, and
// inferred parameter types.
type generator struct {
	ctx      context.Context
	meta     catalog.Source
	opts     Options
	contexts *Context
	names    nameGen

	prefixByNS map[string]string
	imports    []xquery.SchemaImport

	pTypes map[int]catalog.SQLType

	// sources records the federation backends table lookups resolved
	// against, in first-touch order without duplicates (empty when the
	// metadata source does not name sources); unpinned is set once a
	// table name resolved without a qualifier pinning it to its source.
	sources  []string
	unpinned bool

	// stat counts stage-two work for the restructure trace span.
	stat genStats
}

// genStats is the generator's stage-detail record: how much semantic work
// stage two performed (reported as restructure detail in traces).
type genStats struct {
	// tables counts base-table resolutions against the catalog.
	tables int64
	// wildcards counts `*` and `T.*` projection expansions (Figure 6).
	wildcards int64
}

func newGenerator(ctx context.Context, meta catalog.Source, opts Options, contexts *Context) *generator {
	return &generator{
		ctx:        ctx,
		meta:       meta,
		opts:       opts,
		contexts:   contexts,
		prefixByNS: map[string]string{},
		pTypes:     map[int]catalog.SQLType{},
	}
}

// prefixFor assigns (or reuses) an ns<i> prefix for a function namespace
// and records the schema import for the prolog.
func (g *generator) prefixFor(f *catalog.Function) string {
	if p, ok := g.prefixByNS[f.Namespace]; ok {
		return p
	}
	p := fmt.Sprintf("ns%d", len(g.imports))
	g.prefixByNS[f.Namespace] = p
	g.imports = append(g.imports, xquery.SchemaImport{
		Prefix:    p,
		Namespace: f.Namespace,
		Location:  f.SchemaLocation,
	})
	return p
}

func (g *generator) schemaImports() []xquery.SchemaImport { return g.imports }

func (g *generator) paramTypes(n int) []catalog.SQLType {
	out := make([]catalog.SQLType, n)
	for i := range out {
		out[i] = g.pTypes[i+1]
	}
	return out
}

func (g *generator) noteParamType(idx int, t catalog.SQLType) {
	if t == catalog.SQLUnknown {
		return
	}
	if _, ok := g.pTypes[idx]; !ok {
		g.pTypes[idx] = t
	}
}

// ctxID returns the context id for a query block (0 if the block is
// somehow unknown, which only synthetic ASTs can produce).
func (g *generator) ctxID(spec *qfront.QuerySpec) int {
	if ctx := g.contexts.Find(spec); ctx != nil {
		return ctx.ID
	}
	return 0
}

// fromResult is the prepared FROM clause of one query block: the FLWOR
// clauses that produce the tuple stream, extra join conjuncts to fold into
// the WHERE, and the scope with all range bindings.
type fromResult struct {
	clauses   []xquery.Clause
	conjuncts []xquery.Expr
	scope     *qscope
}

// buildFrom prepares the FROM clause: base tables become `for` clauses over
// data service function calls (Figure 7's FROM→for mapping); derived tables
// become `let` + `for …/RECORD`; inner and cross joins flatten into
// multiple `for` clauses with their ON conditions folded into the WHERE
// (the paper's Example 12 "double for" shape); outer joins materialize the
// let + XPath-filter + if-empty pattern of Example 10.
func (g *generator) buildFrom(from []qfront.TableRef, parent *qscope, ctxID int) (*fromResult, error) {
	fr := &fromResult{scope: &qscope{parent: parent}}
	for _, ref := range from {
		if err := g.addTableRef(ref, fr, ctxID); err != nil {
			return nil, err
		}
	}
	if err := checkDuplicateRangeVars(fr.scope, from); err != nil {
		return nil, err
	}
	return fr, nil
}

func checkDuplicateRangeVars(sc *qscope, from []qfront.TableRef) error {
	seen := map[string]bool{}
	for _, b := range sc.bindings {
		if b.Name == "" {
			continue
		}
		key := strings.ToUpper(b.Name)
		if seen[key] {
			pos := qfront.Pos{Line: 1, Col: 1}
			if len(from) > 0 {
				pos = from[0].Position()
			}
			return semErr(pos, "duplicate range variable %s in FROM clause", b.Name)
		}
		seen[key] = true
	}
	return nil
}

func (g *generator) addTableRef(ref qfront.TableRef, fr *fromResult, ctxID int) error {
	switch ref := ref.(type) {
	case *qfront.TableName:
		return g.addBaseTable(ref, fr, ctxID)
	case *qfront.DerivedTable:
		return g.addDerivedTable(ref, fr, ctxID)
	case *qfront.JoinExpr:
		return g.addJoin(ref, fr, ctxID)
	default:
		return semErr(ref.Position(), "unsupported FROM item %T", ref)
	}
}

// addBaseTable resolves a table to its data service function and adds a
// `for` clause over the function call.
func (g *generator) addBaseTable(t *qfront.TableName, fr *fromResult, ctxID int) error {
	meta, err := g.lookupTable(t)
	if err != nil {
		return err
	}
	g.stat.tables++
	f := meta.Function
	prefix := g.prefixFor(f)
	rowVar := g.names.rowVar(ctxID, zoneFrom)
	cols := make([]colInfo, len(f.Columns))
	for i, c := range f.Columns {
		cols[i] = colInfo{
			Name:      strings.ToUpper(c.Name),
			SQL:       c.Type,
			Type:      c.Type.Atomic(),
			Nullable:  c.Nullable,
			Precision: c.Precision,
			Scale:     c.Scale,
			Accessor:  c.Name,
		}
	}
	fr.scope.add(&binding{Name: strings.ToUpper(t.RangeVar()), Cols: cols, RowVar: rowVar})
	fr.clauses = append(fr.clauses, &xquery.For{
		Var: rowVar,
		In:  xquery.Call(prefix + ":" + f.Name),
	})
	return nil
}

func (g *generator) lookupTable(t *qfront.TableName) (*catalog.TableMeta, error) {
	meta, err := catalog.LookupContext(g.ctx, g.meta, catalog.TableRef{
		Catalog: t.Catalog,
		Schema:  t.Schema,
		Table:   t.Name,
	})
	if err != nil {
		// Name-resolution failures are SQL semantic errors with the table's
		// source position; infrastructure failures (backend down, timeout)
		// are not the SQL's fault and keep their own classified types.
		var nf *catalog.NotFoundError
		var amb *catalog.AmbiguousError
		if errors.As(err, &nf) || errors.As(err, &amb) {
			return nil, semErr(t.Pos, "%v", err)
		}
		return nil, err
	}
	if !meta.Function.IsTable() {
		return nil, semErr(t.Pos, "%s is a parameterized data service function; call it as a stored procedure, not a table", t.Name)
	}
	g.noteSource(meta.Source)
	if t.Catalog == "" || !strings.EqualFold(t.Catalog, meta.Source) {
		g.unpinned = true
	}
	return meta, nil
}

// noteSource records which backend a lookup resolved against (first-touch
// order, deduplicated): the TableMeta's Source, which every Application
// answer sets to the application's name and a federation to the
// registered backend's. A source that names none records nothing.
func (g *generator) noteSource(source string) {
	if source == "" {
		return
	}
	for _, s := range g.sources {
		if s == source {
			return
		}
	}
	g.sources = append(g.sources, source)
}

// addDerivedTable translates the subquery, binds it with a let (the
// paper's mapping of every SQL view abstraction onto an XQuery let), and
// adds a for over its RECORD rows.
func (g *generator) addDerivedTable(d *qfront.DerivedTable, fr *fromResult, ctxID int) error {
	rows, cols, err := g.genSelectStmt(d.Query, fr.scope.parent)
	if err != nil {
		return err
	}
	if len(d.ColumnAliases) > 0 {
		if len(d.ColumnAliases) != len(cols) {
			return semErr(d.Pos, "derived column list has %d names for %d columns", len(d.ColumnAliases), len(cols))
		}
	}
	tempVar := g.names.tempVar(ctxID, zoneFrom)
	rowVar := g.names.rowVar(ctxID, zoneFrom)

	bcols := make([]colInfo, len(cols))
	for i, c := range cols {
		name := c.Label
		if len(d.ColumnAliases) > 0 {
			name = strings.ToUpper(d.ColumnAliases[i])
		}
		bcols[i] = colInfo{
			Name:     strings.ToUpper(name),
			SQL:      c.SQL,
			Type:     c.Type,
			Nullable: c.Nullable,
			Accessor: c.ElementName,
		}
	}
	fr.scope.add(&binding{Name: strings.ToUpper(d.Alias), Cols: bcols, RowVar: rowVar})
	fr.clauses = append(fr.clauses,
		&xquery.Let{Var: tempVar, Expr: recordsetCtor(rows)},
		&xquery.For{Var: rowVar, In: xquery.ChildPath(tempVar, "RECORD")},
	)
	return nil
}

// addJoin dispatches on join flavor.
func (g *generator) addJoin(j *qfront.JoinExpr, fr *fromResult, ctxID int) error {
	switch j.Type {
	case qfront.JoinInner, qfront.JoinCross:
		return g.addInnerJoin(j, fr, ctxID)
	case qfront.JoinLeftOuter, qfront.JoinRightOuter, qfront.JoinFullOuter:
		return g.addOuterJoin(j, fr, ctxID)
	default:
		return semErr(j.Pos, "unsupported join type %v", j.Type)
	}
}

// addInnerJoin flattens both sides into the current tuple stream and folds
// the join condition into the WHERE conjuncts (Example 12's shape). An
// aliased inner join additionally groups its columns under the alias.
func (g *generator) addInnerJoin(j *qfront.JoinExpr, fr *fromResult, ctxID int) error {
	// Remember which bindings the join introduces, for USING/NATURAL and
	// alias handling.
	before := len(fr.scope.bindings)
	if err := g.addTableRef(j.Left, fr, ctxID); err != nil {
		return err
	}
	leftEnd := len(fr.scope.bindings)
	if err := g.addTableRef(j.Right, fr, ctxID); err != nil {
		return err
	}
	joinScope := &qscope{parent: fr.scope.parent, bindings: fr.scope.bindings[before:]}
	leftScope := &qscope{bindings: fr.scope.bindings[before:leftEnd]}
	rightScope := &qscope{bindings: fr.scope.bindings[leftEnd:]}

	cond, err := g.joinCondition(j, joinScope, leftScope, rightScope)
	if err != nil {
		return err
	}
	if cond != nil {
		fr.conjuncts = append(fr.conjuncts, cond)
	}
	if j.Alias != "" {
		g.aliasJoinBindings(fr, before, j.Alias)
	}
	return nil
}

// joinCondition renders ON / USING / NATURAL into a boolean expression
// over the join's own scope.
func (g *generator) joinCondition(j *qfront.JoinExpr, joinScope, leftScope, rightScope *qscope) (xquery.Expr, error) {
	switch {
	case j.Cond != nil:
		cond, _, err := g.genExpr(j.Cond, joinScope, nil)
		return cond, err
	case len(j.Using) > 0:
		return g.equiCondition(j, j.Using, leftScope, rightScope)
	case j.Natural:
		common := commonColumns(leftScope, rightScope)
		if len(common) == 0 {
			return nil, semErr(j.Pos, "NATURAL JOIN has no common columns")
		}
		return g.equiCondition(j, common, leftScope, rightScope)
	case j.Type == qfront.JoinCross:
		return nil, nil
	default:
		return nil, semErr(j.Pos, "join requires a condition")
	}
}

func (g *generator) equiCondition(j *qfront.JoinExpr, cols []string, leftScope, rightScope *qscope) (xquery.Expr, error) {
	var cond xquery.Expr
	for _, name := range cols {
		l, err := leftScope.resolve(&qfront.ColumnRef{Pos: j.Pos, Column: strings.ToUpper(name)})
		if err != nil {
			return nil, err
		}
		r, err := rightScope.resolve(&qfront.ColumnRef{Pos: j.Pos, Column: strings.ToUpper(name)})
		if err != nil {
			return nil, err
		}
		eq := &xquery.Binary{Op: "=", Left: l.Expr, Right: r.Expr}
		if cond == nil {
			cond = eq
		} else {
			cond = &xquery.Binary{Op: "and", Left: cond, Right: eq}
		}
	}
	return cond, nil
}

func commonColumns(left, right *qscope) []string {
	rightCols := map[string]bool{}
	for _, b := range right.bindings {
		for _, c := range b.Cols {
			rightCols[c.Name] = true
		}
	}
	var common []string
	for _, b := range left.bindings {
		for _, c := range b.Cols {
			if rightCols[c.Name] {
				common = append(common, c.Name)
			}
		}
	}
	sort.Strings(common)
	return common
}

// aliasJoinBindings collapses the bindings a parenthesized aliased join
// introduced into a single binding named by the alias, exposing the
// columns under their bare names (SQL's view of "(A JOIN B …) AS P").
// Ambiguous bare names stay reachable only via their original qualifiers.
func (g *generator) aliasJoinBindings(fr *fromResult, from int, alias string) {
	counts := map[string]int{}
	for _, b := range fr.scope.bindings[from:] {
		for _, c := range b.Cols {
			counts[c.Name]++
		}
	}
	merged := &binding{Name: strings.ToUpper(alias), delegate: map[string]*binding{}}
	for _, b := range fr.scope.bindings[from:] {
		for _, c := range b.Cols {
			if counts[c.Name] > 1 {
				continue // ambiguous bare name: only reachable via original qualifier
			}
			merged.Cols = append(merged.Cols, c)
			merged.delegate[c.Name] = b
		}
	}
	fr.scope.bindings = append(fr.scope.bindings, merged)
}
