package translator

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/qfront"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// outCol describes one output column of a generated rows expression.
type outCol struct {
	Label       string
	ElementName string
	SQL         catalog.SQLType
	Type        xdm.AtomicType
	Nullable    bool
	Precision   int
	Scale       int
}

// genSelectStmt translates a full statement (query body + ORDER BY) into a
// rows expression producing RECORD elements.
func (g *generator) genSelectStmt(stmt *qfront.SelectStmt, parent *qscope) (xquery.Expr, []outCol, error) {
	var rows xquery.Expr
	var cols []outCol
	var err error
	switch body := stmt.Body.(type) {
	case *qfront.QuerySpec:
		rows, cols, err = g.genQuerySpec(body, parent, stmt.OrderBy)
		if err != nil {
			return nil, nil, err
		}
	case *qfront.SetOpExpr:
		rows, cols, err = g.genSetOp(body, parent)
		if err != nil {
			return nil, nil, err
		}
		if len(stmt.OrderBy) > 0 {
			rows, err = g.orderRows(rows, cols, stmt.OrderBy, body.Position())
			if err != nil {
				return nil, nil, err
			}
		}
	default:
		return nil, nil, semErr(stmt.Pos, "unsupported query body %T", stmt.Body)
	}
	// FETCH FIRST n ROWS ONLY → fn:subsequence over the (ordered) rows.
	if stmt.Limit >= 0 {
		rows = xquery.Call("fn:subsequence", rows, xquery.Num("1"), xquery.Num(fmt.Sprintf("%d", stmt.Limit)))
	}
	return rows, cols, nil
}

// genSetOp renders UNION/EXCEPT/INTERSECT over two row sequences. The
// right side's RECORD elements are renamed to the left side's column
// element names (SQL takes output names from the first operand), and types
// are checked for union compatibility.
func (g *generator) genSetOp(s *qfront.SetOpExpr, parent *qscope) (xquery.Expr, []outCol, error) {
	left, lcols, err := g.genQueryOperand(s.Left, parent)
	if err != nil {
		return nil, nil, err
	}
	right, rcols, err := g.genQueryOperand(s.Right, parent)
	if err != nil {
		return nil, nil, err
	}
	if len(lcols) != len(rcols) {
		return nil, nil, semErr(s.Pos, "%s operands have different column counts (%d vs %d)", s.Op, len(lcols), len(rcols))
	}
	cols := make([]outCol, len(lcols))
	for i := range lcols {
		merged, err := unionColumnType(lcols[i], rcols[i])
		if err != nil {
			return nil, nil, semErr(s.Pos, "%s column %d: %v", s.Op, i+1, err)
		}
		cols[i] = merged
	}
	right = g.renameRows(right, rcols, cols)

	allFlag := xquery.Call("fn:false")
	if s.All {
		allFlag = xquery.Call("fn:true")
	}
	var rows xquery.Expr
	switch s.Op {
	case qfront.SetUnion:
		rows = &xquery.Seq{Items: []xquery.Expr{left, right}}
		if !s.All {
			rows = xquery.Call("fn-bea:distinct-rows", rows)
		}
	case qfront.SetExcept:
		rows = xquery.Call("fn-bea:rows-except", left, right, allFlag)
	case qfront.SetIntersect:
		rows = xquery.Call("fn-bea:rows-intersect", left, right, allFlag)
	default:
		return nil, nil, semErr(s.Pos, "unsupported set operation %v", s.Op)
	}
	return rows, cols, nil
}

func (g *generator) genQueryOperand(body qfront.QueryExpr, parent *qscope) (xquery.Expr, []outCol, error) {
	switch body := body.(type) {
	case *qfront.QuerySpec:
		return g.genQuerySpec(body, parent, nil)
	case *qfront.SetOpExpr:
		return g.genSetOp(body, parent)
	default:
		return nil, nil, semErr(body.Position(), "unsupported set operation operand %T", body)
	}
}

// unionColumnType merges the column descriptions of two set-operation
// operands: labels and element names come from the left, types promote.
func unionColumnType(l, r outCol) (outCol, error) {
	out := l
	out.Nullable = l.Nullable || r.Nullable
	if l.SQL == r.SQL {
		return out, nil
	}
	if numericRank(l.SQL) >= 0 && numericRank(r.SQL) >= 0 {
		if numericRank(r.SQL) > numericRank(l.SQL) {
			out.SQL = r.SQL
			out.Type = r.Type
		}
		return out, nil
	}
	if l.SQL == catalog.SQLUnknown || r.SQL == catalog.SQLUnknown {
		if l.SQL == catalog.SQLUnknown {
			out.SQL = r.SQL
			out.Type = r.Type
		}
		return out, nil
	}
	// CHAR and VARCHAR are compatible.
	if (l.SQL == catalog.SQLChar || l.SQL == catalog.SQLVarchar) &&
		(r.SQL == catalog.SQLChar || r.SQL == catalog.SQLVarchar) {
		out.SQL = catalog.SQLVarchar
		return out, nil
	}
	return outCol{}, fmt.Errorf("incompatible types %s and %s", l.SQL, r.SQL)
}

// renameRows rewrites a row sequence so its RECORD children carry the
// element names in want; a no-op when names already match.
func (g *generator) renameRows(rows xquery.Expr, have []outCol, want []outCol) xquery.Expr {
	same := true
	for i := range have {
		if have[i].ElementName != want[i].ElementName {
			same = false
			break
		}
	}
	if same {
		return rows
	}
	v := g.names.rowVar(0, zoneFrom)
	rec := &xquery.ElementCtor{Name: "RECORD"}
	for i := range have {
		rec.Content = append(rec.Content, condElem(want[i].ElementName,
			xquery.Call("fn:data", xquery.ChildPath(v, have[i].ElementName)),
			have[i].Nullable))
	}
	return &xquery.FLWOR{
		Clauses: []xquery.Clause{&xquery.For{Var: v, In: rows}},
		Return:  rec,
	}
}

// orderRows wraps a finished row sequence in an ordering FLWOR — used for
// ORDER BY over set operations, where ordering can only reference output
// columns (by name or ordinal, per SQL-92).
func (g *generator) orderRows(rows xquery.Expr, cols []outCol, orderBy []qfront.OrderItem, pos qfront.Pos) (xquery.Expr, error) {
	v := g.names.rowVar(0, zoneFrom)
	var specs []xquery.OrderSpec
	for _, item := range orderBy {
		col, err := orderColumn(item, cols)
		if err != nil {
			return nil, err
		}
		key := xquery.Expr(xquery.Call("fn:data", xquery.ChildPath(v, col.ElementName)))
		if col.Type != xdm.TypeUntyped {
			key = castTo(key, col.Type)
		}
		specs = append(specs, xquery.OrderSpec{Expr: key, Descending: item.Desc})
	}
	return &xquery.FLWOR{
		Clauses: []xquery.Clause{
			&xquery.For{Var: v, In: rows},
			&xquery.OrderByClause{Specs: specs},
		},
		Return: xquery.VarRef(v),
	}, nil
}

func orderColumn(item qfront.OrderItem, cols []outCol) (outCol, error) {
	switch e := item.Expr.(type) {
	case *qfront.Literal:
		if e.Type == qfront.LitInteger {
			n, err := strconv.Atoi(e.Text)
			if err != nil || n < 1 || n > len(cols) {
				return outCol{}, semErr(e.Pos, "ORDER BY position %s is not in the select list", e.Text)
			}
			return cols[n-1], nil
		}
	case *qfront.ColumnRef:
		if e.Qualifier == "" {
			for _, c := range cols {
				if strings.EqualFold(c.Label, e.Column) {
					return c, nil
				}
			}
		}
	}
	return outCol{}, semErr(item.Pos, "ORDER BY over a set operation must reference an output column name or ordinal")
}

// selItem is a prepared projection item (after stage two's wildcard
// expansion and resolution).
type selItem struct {
	ElementName string
	Label       string
	Expr        xquery.Expr // translated value expression (atomized)
	T           typeInfo
	// Source is the original SQL expression (nil for wildcard-expanded
	// items, which carry Resolved instead); used for ORDER BY alias and
	// expression matching.
	Source qfront.Expr
}

// genQuerySpec translates one SELECT block into a rows expression.
func (g *generator) genQuerySpec(spec *qfront.QuerySpec, parent *qscope, orderBy []qfront.OrderItem) (xquery.Expr, []outCol, error) {
	ctxID := g.ctxID(spec)
	grouped := len(spec.GroupBy) > 0 || specHasAggregates(spec)

	if len(spec.From) == 0 {
		return g.genFromlessSpec(spec, parent)
	}

	fr, err := g.buildFrom(spec.From, parent, ctxID)
	if err != nil {
		return nil, nil, err
	}

	var whereParts []xquery.Expr
	whereParts = append(whereParts, fr.conjuncts...)
	if spec.Where != nil {
		if qfront.ContainsAggregate(spec.Where) {
			return nil, nil, semErr(spec.Where.Position(), "aggregate functions are not allowed in WHERE")
		}
		cond, _, err := g.genExpr(spec.Where, fr.scope, nil)
		if err != nil {
			return nil, nil, err
		}
		whereParts = append(whereParts, cond)
	}
	where := andAll(whereParts)

	if grouped {
		return g.genGroupedSpec(spec, fr, where, orderBy, ctxID)
	}
	return g.genPlainSpec(spec, fr, where, orderBy, ctxID)
}

// genFromlessSpec handles SELECT without FROM (constant rows), which some
// reporting tools issue as connectivity probes.
func (g *generator) genFromlessSpec(spec *qfront.QuerySpec, parent *qscope) (xquery.Expr, []outCol, error) {
	if spec.Where != nil || len(spec.GroupBy) > 0 || spec.Having != nil {
		return nil, nil, semErr(spec.Pos, "SELECT without FROM cannot have WHERE, GROUP BY or HAVING")
	}
	sc := &qscope{parent: parent}
	items, cols, err := g.genSelectItems(spec, sc, nil)
	if err != nil {
		return nil, nil, err
	}
	return recordCtor(items), cols, nil
}

// genPlainSpec is the non-aggregated path: the paper's Figure 7 mapping of
// SELECT-FROM-WHERE-ORDER BY onto return-for-where-order by.
func (g *generator) genPlainSpec(spec *qfront.QuerySpec, fr *fromResult, where xquery.Expr, orderBy []qfront.OrderItem, ctxID int) (xquery.Expr, []outCol, error) {
	items, cols, err := g.genSelectItems(spec, fr.scope, nil)
	if err != nil {
		return nil, nil, err
	}

	clauses := append([]xquery.Clause{}, fr.clauses...)
	if where != nil {
		clauses = append(clauses, &xquery.Where{Cond: where})
	}
	if len(orderBy) > 0 {
		specs, err := g.orderSpecs(orderBy, items, fr.scope, nil)
		if err != nil {
			return nil, nil, err
		}
		clauses = append(clauses, &xquery.OrderByClause{Specs: specs})
	}

	rows := xquery.Expr(&xquery.FLWOR{Clauses: clauses, Return: recordCtor(items)})
	if spec.Distinct {
		rows = xquery.Call("fn-bea:distinct-rows", rows)
	}
	return rows, cols, nil
}

// genSelectItems expands wildcards (stage two, Figure 6) and translates
// each projection item. agg is non-nil in grouped queries.
func (g *generator) genSelectItems(spec *qfront.QuerySpec, sc *qscope, agg *aggEnv) ([]selItem, []outCol, error) {
	var items []selItem
	exprCount := 0
	for _, item := range spec.Items {
		switch {
		case item.Wildcard && item.Qualifier == "":
			if agg != nil {
				return nil, nil, semErr(item.Pos, "SELECT * is not allowed with GROUP BY or aggregates")
			}
			g.stat.wildcards++
			items = append(items, g.expandWildcard(sc)...)
		case item.Wildcard:
			if agg != nil {
				return nil, nil, semErr(item.Pos, "SELECT %s.* is not allowed with GROUP BY or aggregates", item.Qualifier)
			}
			b, ok := sc.bindingByName(item.Qualifier)
			if !ok {
				return nil, nil, semErr(item.Pos, "unknown table or alias %s", item.Qualifier)
			}
			g.stat.wildcards++
			items = append(items, expandBinding(b, len(sc.bindings) > 1)...)
		default:
			xe, ti, err := g.genExpr(item.Expr, sc, agg)
			if err != nil {
				return nil, nil, err
			}
			elemName, label := outputNames(item, &exprCount)
			items = append(items, selItem{
				ElementName: elemName,
				Label:       label,
				Expr:        atomized(typedExpr{E: xe, T: ti}),
				T:           ti,
				Source:      item.Expr,
			})
		}
	}
	if len(items) == 0 {
		return nil, nil, semErr(spec.Pos, "empty select list")
	}
	uniqueElementNames(items)
	cols := make([]outCol, len(items))
	for i, it := range items {
		cols[i] = outCol{
			Label:       it.Label,
			ElementName: it.ElementName,
			SQL:         it.T.SQL,
			Type:        it.T.X,
			Nullable:    it.T.Nullable,
			Precision:   it.T.Precision,
			Scale:       it.T.Scale,
		}
	}
	return items, cols, nil
}

// uniqueElementNames renames each item whose element name an earlier item
// already has to NAME-2, NAME-3, …, the first one free, so that $row/NAME
// selects exactly one column — what the §4 text wrapper and every
// by-name reader of a RECORD assume. Labels are untouched, and an
// unquoted SQL identifier cannot contain '-', so ORDER BY still resolves
// as written.
func uniqueElementNames(items []selItem) {
	taken := func(upTo int, name string) bool {
		for _, it := range items[:upTo] {
			if it.ElementName == name {
				return true
			}
		}
		return false
	}
	for i := range items {
		base := items[i].ElementName
		for n := 2; taken(i, items[i].ElementName); n++ {
			items[i].ElementName = base + "-" + strconv.Itoa(n)
		}
	}
}

// expandWildcard expands a bare `*` over every visible range binding. With
// a single binding, bare column names are used (the common single-table
// case); with several, element names are qualified the way the paper's
// examples qualify them.
func (g *generator) expandWildcard(sc *qscope) []selItem {
	real := 0
	for _, b := range sc.bindings {
		if !b.aliasOnly {
			real++
		}
	}
	var items []selItem
	for _, b := range sc.bindings {
		if b.aliasOnly {
			continue
		}
		items = append(items, expandBinding(b, real > 1)...)
	}
	return items
}

func expandBinding(b *binding, qualify bool) []selItem {
	var items []selItem
	for _, c := range b.Cols {
		name := c.Name
		if qualify && b.Name != "" {
			name = b.Name + "." + c.Name
		}
		items = append(items, selItem{
			ElementName: xmlElementName(name),
			Label:       c.Name,
			Expr:        xquery.Call("fn:data", b.access(c)),
			T: typeInfo{SQL: c.SQL, X: c.Type, Nullable: c.Nullable,
				Precision: c.Precision, Scale: c.Scale},
		})
	}
	return items
}

// outputNames derives the XML element name and the JDBC label for a
// projection item: alias when present; for plain column references the
// element name preserves the written qualification (the paper's
// <CUSTOMERS.CUSTOMERID> naming) while the label is the bare column name;
// other expressions get generated EXPR<n> names.
func outputNames(item qfront.SelectItem, exprCount *int) (elemName, label string) {
	if item.Alias != "" {
		up := strings.ToUpper(item.Alias)
		return xmlElementName(up), up
	}
	if ref, ok := item.Expr.(*qfront.ColumnRef); ok {
		elem := ref.Column
		if ref.Qualifier != "" {
			elem = ref.Qualifier + "." + ref.Column
		}
		return xmlElementName(elem), ref.Column
	}
	*exprCount++
	name := fmt.Sprintf("EXPR%d", *exprCount)
	return name, name
}

// xmlElementName maps a SQL-derived name onto a well-formed XML element
// name. SQL identifiers admit characters XML names cannot ('#' and '$'
// are legal identifier characters, and quoted identifiers are arbitrary
// text); each offending character becomes '_', and a leading character
// that cannot start an XML name gets an '_' prefix. Only the wire element
// name is rewritten — the JDBC column label keeps the SQL spelling.
func xmlElementName(s string) string {
	nameChar := func(r rune) bool {
		return r == '_' || r == '.' || r == '-' ||
			(r >= 'A' && r <= 'Z') || (r >= 'a' && r <= 'z') ||
			(r >= '0' && r <= '9')
	}
	var b strings.Builder
	for _, r := range s {
		if nameChar(r) {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	out := b.String()
	if out == "" {
		return "_"
	}
	if c := out[0]; c != '_' && !(c >= 'A' && c <= 'Z') && !(c >= 'a' && c <= 'z') {
		out = "_" + out
	}
	return out
}

// recordCtor builds the RECORD element for the projection. Nullable
// columns construct conditionally so SQL NULL travels as an *absent*
// element, never an empty one — the distinction the result decoders and
// aggregate/DISTINCT semantics depend on.
func recordCtor(items []selItem) *xquery.ElementCtor {
	rec := &xquery.ElementCtor{Name: "RECORD"}
	for _, it := range items {
		rec.Content = append(rec.Content, condElem(it.ElementName, it.Expr, it.T.Nullable))
	}
	return rec
}

// condElem renders <name>{value}</name>, guarded by an emptiness check
// when the value may be NULL.
func condElem(name string, value xquery.Expr, nullable bool) xquery.ElemContent {
	if !nullable {
		return xquery.TextElem(name, value)
	}
	return &xquery.Enclosed{Expr: &xquery.If{
		Cond: xquery.Call("fn:empty", value),
		Then: &xquery.EmptySeq{},
		Else: xquery.TextElem(name, value),
	}}
}

// orderSpecs resolves ORDER BY items against the select list (ordinals and
// aliases) or the query scope, producing typed sort keys.
func (g *generator) orderSpecs(orderBy []qfront.OrderItem, items []selItem, sc *qscope, agg *aggEnv) ([]xquery.OrderSpec, error) {
	var specs []xquery.OrderSpec
	for _, item := range orderBy {
		var key xquery.Expr
		var t typeInfo
		switch e := item.Expr.(type) {
		case *qfront.Literal:
			if e.Type != qfront.LitInteger {
				return nil, semErr(e.Pos, "ORDER BY literal must be an integer ordinal")
			}
			n, err := strconv.Atoi(e.Text)
			if err != nil || n < 1 || n > len(items) {
				return nil, semErr(e.Pos, "ORDER BY position %s is not in the select list", e.Text)
			}
			key, t = items[n-1].Expr, items[n-1].T
		case *qfront.ColumnRef:
			if it, ok := matchAliasItem(e, items); ok {
				key, t = it.Expr, it.T
				break
			}
			xe, ti, err := g.genExpr(e, sc, agg)
			if err != nil {
				return nil, err
			}
			key, t = atomized(typedExpr{E: xe, T: ti}), ti
		default:
			// Match a select expression textually first (SQL-92 allows
			// ordering by a select expression), else translate fresh.
			if it, ok := matchExprItem(e, items); ok {
				key, t = it.Expr, it.T
				break
			}
			xe, ti, err := g.genExpr(e, sc, agg)
			if err != nil {
				return nil, err
			}
			key, t = atomized(typedExpr{E: xe, T: ti}), ti
		}
		if t.X != xdm.TypeUntyped && t.X != xdm.TypeString {
			key = castTo(key, t.X)
		}
		specs = append(specs, xquery.OrderSpec{Expr: key, Descending: item.Desc})
	}
	return specs, nil
}

func matchAliasItem(ref *qfront.ColumnRef, items []selItem) (selItem, bool) {
	if ref.Qualifier != "" {
		return selItem{}, false
	}
	for _, it := range items {
		if strings.EqualFold(it.Label, ref.Column) && it.Source != nil {
			if _, isRef := it.Source.(*qfront.ColumnRef); !isRef {
				// Alias of a computed expression.
				return it, true
			}
		}
		// Exact alias match.
		if strings.EqualFold(it.ElementName, ref.Column) {
			return it, true
		}
	}
	return selItem{}, false
}

func matchExprItem(e qfront.Expr, items []selItem) (selItem, bool) {
	want := strings.ToUpper(e.SQL())
	for _, it := range items {
		if it.Source != nil && strings.ToUpper(it.Source.SQL()) == want {
			return it, true
		}
	}
	return selItem{}, false
}

func specHasAggregates(spec *qfront.QuerySpec) bool {
	for _, item := range spec.Items {
		if item.Expr != nil && qfront.ContainsAggregate(item.Expr) {
			return true
		}
	}
	return spec.Having != nil && qfront.ContainsAggregate(spec.Having)
}
