package translator

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/qfront"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// genExpr translates a SQL value or boolean expression into XQuery,
// inferring its datatype bottom-up (§3.5 v). sc is the column-resolution
// scope; agg is non-nil when translating in a grouped query's projection,
// HAVING or ORDER BY.
func (g *generator) genExpr(e qfront.Expr, sc *qscope, agg *aggEnv) (xquery.Expr, typeInfo, error) {
	// In a grouped context, an expression that textually matches a whole
	// GROUP BY key resolves to that key's variable (SQL-92's derivability
	// rule for expression keys, e.g. GROUP BY UPPER(CITY) with
	// SELECT UPPER(CITY)).
	if agg != nil {
		if _, isRef := e.(*qfront.ColumnRef); !isRef {
			if xe, ti, ok := agg.matchKeyText(e); ok {
				return xe, ti, nil
			}
		}
	}
	switch e := e.(type) {
	case *qfront.ColumnRef:
		if agg != nil {
			return g.resolveGroupedColumn(e, agg)
		}
		r, err := sc.resolve(e)
		if err != nil {
			return nil, typeInfo{}, err
		}
		return r.Expr, typeInfo{SQL: r.Col.SQL, X: r.Col.Type, Nullable: r.Col.Nullable,
			Precision: r.Col.Precision, Scale: r.Col.Scale}, nil

	case *qfront.Literal:
		return genLiteral(e)

	case *qfront.Param:
		// Parameters surface as external variables $p1…$pN; their types
		// are noted when a comparison or arithmetic context reveals one.
		return xquery.VarRef(fmt.Sprintf("p%d", e.Index)), tUnknown, nil

	case *qfront.UnaryExpr:
		return g.genUnary(e, sc, agg)

	case *qfront.BinaryExpr:
		return g.genBinary(e, sc, agg)

	case *qfront.FuncCall:
		if e.IsAggregate() {
			if agg == nil {
				return nil, typeInfo{}, semErr(e.Pos, "aggregate function %s is not allowed here", e.Name)
			}
			ctxID := 0 // names inside aggregates reuse the grouped zone
			return g.genAggregate(e, agg, ctxID)
		}
		return g.genScalarFunc(e, sc, agg)

	case *qfront.CaseExpr:
		return g.genCase(e, sc, agg)

	case *qfront.CastExpr:
		arg, argT, err := g.genExpr(e.Operand, sc, agg)
		if err != nil {
			return nil, typeInfo{}, err
		}
		target := typeFromTypeName(e.Type)
		target.Nullable = argT.Nullable
		inner := atomized(typedExpr{E: arg, T: argT})
		// Element content is untypedAtomic at runtime; establish the
		// operand's declared type first so SQL's value conversions apply
		// (CAST(decimal AS INTEGER) truncates; a direct untyped→integer
		// cast of "100.50" would be a dynamic error).
		if argT.X != xdm.TypeUntyped && argT.X != target.X {
			inner = castTo(inner, argT.X)
		}
		return castTo(inner, target.X), target, nil

	case *qfront.BetweenExpr:
		return g.genBetween(e, sc, agg)

	case *qfront.InExpr:
		return g.genIn(e, sc, agg)

	case *qfront.ExistsExpr:
		rows, _, err := g.genSelectStmt(e.Subquery, sc)
		if err != nil {
			return nil, typeInfo{}, err
		}
		return xquery.Call("fn:exists", rows), tBoolean, nil

	case *qfront.LikeExpr:
		return g.genLike(e, sc, agg)

	case *qfront.IsNullExpr:
		operand, t, err := g.genExpr(e.Operand, sc, agg)
		if err != nil {
			return nil, typeInfo{}, err
		}
		test := xquery.Call("fn:empty", xquery.Call("fn:data", operand))
		_ = t
		if e.Not {
			return xquery.Call("fn:not", test), tBoolean, nil
		}
		return test, tBoolean, nil

	case *qfront.SubqueryExpr:
		return g.genScalarSubquery(e, sc)

	case *qfront.QuantifiedExpr:
		return g.genQuantified(e, sc, agg)

	default:
		return nil, typeInfo{}, semErr(e.Position(), "unsupported expression %T", e)
	}
}

func genLiteral(l *qfront.Literal) (xquery.Expr, typeInfo, error) {
	switch l.Type {
	case qfront.LitInteger:
		return xquery.Num(l.Text), tInteger, nil
	case qfront.LitDecimal:
		return xquery.Num(l.Text), tDecimal, nil
	case qfront.LitFloat:
		return xquery.Num(l.Text), tDouble, nil
	case qfront.LitString:
		return xquery.Str(l.Text), tVarchar, nil
	case qfront.LitBoolean:
		if l.Text == "true" {
			return xquery.Call("fn:true"), tBoolean, nil
		}
		return xquery.Call("fn:false"), tBoolean, nil
	case qfront.LitNull:
		return &xquery.EmptySeq{}, tUnknown, nil
	case qfront.LitDate:
		return &xquery.Cast{Type: "xs:date", Operand: xquery.Str(l.Text)},
			typeInfo{SQL: catalog.SQLDate, X: xdm.TypeDate}, nil
	case qfront.LitTime:
		return &xquery.Cast{Type: "xs:time", Operand: xquery.Str(l.Text)},
			typeInfo{SQL: catalog.SQLTime, X: xdm.TypeTime}, nil
	case qfront.LitTimestamp:
		text := l.Text
		return &xquery.Cast{Type: "xs:dateTime", Operand: xquery.Str(normalizeTimestamp(text))},
			typeInfo{SQL: catalog.SQLTimestamp, X: xdm.TypeDateTime}, nil
	default:
		return nil, typeInfo{}, semErr(l.Pos, "unsupported literal type")
	}
}

// normalizeTimestamp turns the SQL "YYYY-MM-DD HH:MM:SS" form into the
// xs:dateTime "YYYY-MM-DDTHH:MM:SS" lexical form.
func normalizeTimestamp(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i] + "T" + s[i+1:]
		}
	}
	return s
}

func (g *generator) genUnary(e *qfront.UnaryExpr, sc *qscope, agg *aggEnv) (xquery.Expr, typeInfo, error) {
	operand, t, err := g.genExpr(e.Operand, sc, agg)
	if err != nil {
		return nil, typeInfo{}, err
	}
	switch e.Op {
	case qfront.UnaryNot:
		return xquery.Call("fn:not", operand), tBoolean, nil
	case qfront.UnaryMinus:
		return &xquery.Unary{Op: "-", Operand: atomized(typedExpr{E: operand, T: t})}, t, nil
	case qfront.UnaryPlus:
		return atomized(typedExpr{E: operand, T: t}), t, nil
	default:
		return nil, typeInfo{}, semErr(e.Pos, "unsupported unary operator")
	}
}

var comparisonXQ = map[qfront.BinaryOp]string{
	qfront.BinEq: "=", qfront.BinNe: "!=", qfront.BinLt: "<",
	qfront.BinLe: "<=", qfront.BinGt: ">", qfront.BinGe: ">=",
}

var arithmeticXQ = map[qfront.BinaryOp]string{
	qfront.BinAdd: "+", qfront.BinSub: "-",
	qfront.BinMul: "*", qfront.BinDiv: "div",
}

func (g *generator) genBinary(e *qfront.BinaryExpr, sc *qscope, agg *aggEnv) (xquery.Expr, typeInfo, error) {
	if e.Op == qfront.BinAnd || e.Op == qfront.BinOr {
		left, _, err := g.genExpr(e.Left, sc, agg)
		if err != nil {
			return nil, typeInfo{}, err
		}
		right, _, err := g.genExpr(e.Right, sc, agg)
		if err != nil {
			return nil, typeInfo{}, err
		}
		op := "and"
		if e.Op == qfront.BinOr {
			op = "or"
		}
		return &xquery.Binary{Op: op, Left: left, Right: right}, tBoolean, nil
	}

	// Row value constructors expand before translation: (a, b) = (c, d)
	// becomes column-wise conjunction; orderings chain lexicographically.
	if _, ok := comparisonXQ[e.Op]; ok {
		lRow, lIsRow := e.Left.(*qfront.RowExpr)
		rRow, rIsRow := e.Right.(*qfront.RowExpr)
		if lIsRow || rIsRow {
			if !lIsRow || !rIsRow {
				return nil, typeInfo{}, semErr(e.Pos, "row value constructor compared with a scalar")
			}
			if len(lRow.Items) != len(rRow.Items) {
				return nil, typeInfo{}, semErr(e.Pos, "row value constructors have different degrees (%d vs %d)", len(lRow.Items), len(rRow.Items))
			}
			expanded, err := expandRowComparison(e.Op, lRow, rRow, e.Pos)
			if err != nil {
				return nil, typeInfo{}, err
			}
			return g.genExpr(expanded, sc, agg)
		}
	}

	left, lt, err := g.genExpr(e.Left, sc, agg)
	if err != nil {
		return nil, typeInfo{}, err
	}
	right, rt, err := g.genExpr(e.Right, sc, agg)
	if err != nil {
		return nil, typeInfo{}, err
	}

	if op, ok := comparisonXQ[e.Op]; ok {
		l, r := g.coerceComparison(e.Left, left, lt, e.Right, right, rt)
		return &xquery.Binary{Op: op, Left: l, Right: r}, tBoolean, nil
	}

	if e.Op == qfront.BinConcat {
		res := tVarchar
		res.Nullable = lt.Nullable || rt.Nullable
		return xquery.Call("fn:concat",
			stringArg(typedExpr{E: left, T: lt}),
			stringArg(typedExpr{E: right, T: rt})), res, nil
	}

	if op, ok := arithmeticXQ[e.Op]; ok {
		l := atomized(typedExpr{E: left, T: lt})
		r := atomized(typedExpr{E: right, T: rt})
		l, r = g.castParamSides(e.Left, l, rt, e.Right, r, lt)
		res := promoteNumeric(lt, rt)
		// SQL integer division truncates; XQuery div over integers
		// yields a decimal, so rewrap to keep SQL-92 semantics.
		if e.Op == qfront.BinDiv && lt.SQL == catalog.SQLInteger && rt.SQL == catalog.SQLInteger {
			div := &xquery.Binary{Op: "div", Left: l, Right: r}
			return castTo(div, xdm.TypeInteger), tIntegerNullable(lt, rt), nil
		}
		return &xquery.Binary{Op: op, Left: l, Right: r}, res, nil
	}

	return nil, typeInfo{}, semErr(e.Pos, "unsupported binary operator %v", e.Op)
}

func tIntegerNullable(a, b typeInfo) typeInfo {
	r := tInteger
	r.Nullable = a.Nullable || b.Nullable
	return r
}

// coerceComparison applies the paper's cast generation: literals and
// parameters compared against a typed expression are cast to that type
// ($var1FR2/ID > xs:integer(10) in Example 8).
func (g *generator) coerceComparison(le qfront.Expr, l xquery.Expr, lt typeInfo, re qfront.Expr, r xquery.Expr, rt typeInfo) (xquery.Expr, xquery.Expr) {
	lLit := isLiteralOrParam(le)
	rLit := isLiteralOrParam(re)
	switch {
	case rLit && !lLit && lt.X != xdm.TypeUntyped:
		if p, ok := re.(*qfront.Param); ok {
			g.noteParamType(p.Index, lt.SQL)
		}
		if needsComparisonCast(re, rt, lt) {
			r = castTo(r, lt.X)
		}
	case lLit && !rLit && rt.X != xdm.TypeUntyped:
		if p, ok := le.(*qfront.Param); ok {
			g.noteParamType(p.Index, rt.SQL)
		}
		if needsComparisonCast(le, lt, rt) {
			l = castTo(l, rt.X)
		}
	}
	return l, r
}

func isLiteralOrParam(e qfront.Expr) bool {
	switch e.(type) {
	case *qfront.Literal, *qfront.Param:
		return true
	default:
		return false
	}
}

// needsComparisonCast decides whether a literal/parameter side needs an
// explicit cast. Parameters always cast (their runtime type is unknown).
// Literals cast to the typed side's type — the paper's Example 8 writes
// xs:integer(10) even against an integer column — except for the
// string-vs-string case, where the paper's own Example 3 compares the bare
// literal.
func needsComparisonCast(e qfront.Expr, have, want typeInfo) bool {
	if want.X == xdm.TypeUntyped {
		return false
	}
	if _, ok := e.(*qfront.Param); ok {
		return true
	}
	if have.X == xdm.TypeString && want.X == xdm.TypeString {
		return false
	}
	return true
}

// castParamSides types bare parameters in arithmetic against the other
// operand.
func (g *generator) castParamSides(le qfront.Expr, l xquery.Expr, rt typeInfo, re qfront.Expr, r xquery.Expr, lt typeInfo) (xquery.Expr, xquery.Expr) {
	if p, ok := le.(*qfront.Param); ok && rt.X != xdm.TypeUntyped {
		g.noteParamType(p.Index, rt.SQL)
		l = castTo(l, rt.X)
	}
	if p, ok := re.(*qfront.Param); ok && lt.X != xdm.TypeUntyped {
		g.noteParamType(p.Index, lt.SQL)
		r = castTo(r, lt.X)
	}
	return l, r
}

func (g *generator) genScalarFunc(e *qfront.FuncCall, sc *qscope, agg *aggEnv) (xquery.Expr, typeInfo, error) {
	spec, ok := scalarFuncs[e.Name]
	if !ok {
		return nil, typeInfo{}, semErr(e.Pos, "unknown function %s", e.Name)
	}
	if len(e.Args) < spec.minArgs {
		return nil, typeInfo{}, semErr(e.Pos, "%s expects at least %d argument(s)", e.Name, spec.minArgs)
	}
	if spec.maxArgs >= 0 && len(e.Args) > spec.maxArgs {
		return nil, typeInfo{}, semErr(e.Pos, "%s expects at most %d argument(s)", e.Name, spec.maxArgs)
	}
	args := make([]typedExpr, len(e.Args))
	for i, a := range e.Args {
		xe, ti, err := g.genExpr(a, sc, agg)
		if err != nil {
			return nil, typeInfo{}, err
		}
		args[i] = typedExpr{E: xe, T: ti}
	}
	return spec.gen(e, args)
}

func (g *generator) genCase(e *qfront.CaseExpr, sc *qscope, agg *aggEnv) (xquery.Expr, typeInfo, error) {
	var operand xquery.Expr
	var operandT typeInfo
	if e.Operand != nil {
		var err error
		operand, operandT, err = g.genExpr(e.Operand, sc, agg)
		if err != nil {
			return nil, typeInfo{}, err
		}
	}

	// Translate arms back to front, folding into nested ifs.
	var elseExpr xquery.Expr = &xquery.EmptySeq{}
	resultT := tUnknown
	if e.Else != nil {
		var err error
		var et typeInfo
		elseExpr, et, err = g.genExpr(e.Else, sc, agg)
		if err != nil {
			return nil, typeInfo{}, err
		}
		elseExpr = atomized(typedExpr{E: elseExpr, T: et})
		resultT = et
	}
	out := elseExpr
	for i := len(e.Whens) - 1; i >= 0; i-- {
		w := e.Whens[i]
		var cond xquery.Expr
		if e.Operand != nil {
			wv, wt, err := g.genExpr(w.When, sc, agg)
			if err != nil {
				return nil, typeInfo{}, err
			}
			l, r := g.coerceComparison(e.Operand, operand, operandT, w.When, wv, wt)
			cond = &xquery.Binary{Op: "=", Left: l, Right: r}
		} else {
			var err error
			cond, _, err = g.genExpr(w.When, sc, agg)
			if err != nil {
				return nil, typeInfo{}, err
			}
		}
		tv, tt, err := g.genExpr(w.Then, sc, agg)
		if err != nil {
			return nil, typeInfo{}, err
		}
		if resultT.SQL == catalog.SQLUnknown {
			resultT = tt
		} else if numericRank(resultT.SQL) >= 0 && numericRank(tt.SQL) >= 0 {
			resultT = promoteNumeric(resultT, tt)
		}
		out = &xquery.If{
			Cond: cond,
			Then: atomized(typedExpr{E: tv, T: tt}),
			Else: out,
		}
	}
	resultT.Nullable = true // CASE can fall through to NULL
	if e.Else != nil {
		resultT.Nullable = false
		for _, w := range e.Whens {
			_ = w
		}
		// Conservative: an explicit ELSE may still produce NULL through
		// nullable operands; keep nullable if any arm is nullable.
		resultT.Nullable = anyArmNullable(g, e, sc, agg)
	}
	return out, resultT, nil
}

// anyArmNullable is a conservative nullability estimate for CASE results.
func anyArmNullable(g *generator, e *qfront.CaseExpr, sc *qscope, agg *aggEnv) bool {
	// Re-deriving nullability would mean re-translating arms; assume
	// nullable, which is always safe for result metadata.
	return true
}

func (g *generator) genBetween(e *qfront.BetweenExpr, sc *qscope, agg *aggEnv) (xquery.Expr, typeInfo, error) {
	operand, ot, err := g.genExpr(e.Operand, sc, agg)
	if err != nil {
		return nil, typeInfo{}, err
	}
	low, lt, err := g.genExpr(e.Low, sc, agg)
	if err != nil {
		return nil, typeInfo{}, err
	}
	high, ht, err := g.genExpr(e.High, sc, agg)
	if err != nil {
		return nil, typeInfo{}, err
	}
	_, lowC := g.coerceComparison(e.Operand, operand, ot, e.Low, low, lt)
	_, highC := g.coerceComparison(e.Operand, operand, ot, e.High, high, ht)
	cond := xquery.Expr(&xquery.Binary{
		Op:    "and",
		Left:  &xquery.Binary{Op: ">=", Left: operand, Right: lowC},
		Right: &xquery.Binary{Op: "<=", Left: operand, Right: highC},
	})
	if e.Not {
		// NOT BETWEEN must stay UNKNOWN (filtered) for NULL operands, so
		// guard with an existence test rather than negating blindly.
		cond = &xquery.Binary{
			Op:    "and",
			Left:  xquery.Call("fn:exists", xquery.Call("fn:data", operand)),
			Right: xquery.Call("fn:not", cond),
		}
	}
	return cond, tBoolean, nil
}

func (g *generator) genIn(e *qfront.InExpr, sc *qscope, agg *aggEnv) (xquery.Expr, typeInfo, error) {
	if row, ok := e.Operand.(*qfront.RowExpr); ok {
		return g.genRowIn(e, row, sc, agg)
	}
	operand, ot, err := g.genExpr(e.Operand, sc, agg)
	if err != nil {
		return nil, typeInfo{}, err
	}
	// SQL-92 makes x NOT IN (…) TRUE only when x <> v is TRUE for every v:
	// vacuously for an empty subquery, never when x or some v is NULL. The
	// general comparison `!=` is false when either side is empty, so it is
	// exactly "x <> v is TRUE".
	if e.Subquery != nil {
		rows, cols, err := g.genSelectStmt(e.Subquery, sc)
		if err != nil {
			return nil, typeInfo{}, err
		}
		if len(cols) != 1 {
			return nil, typeInfo{}, semErr(e.Pos, "IN subquery must return exactly one column, got %d", len(cols))
		}
		if e.Not {
			qv := g.names.rowVar(0, zoneWhere)
			differs := &xquery.Binary{Op: "!=", Left: operand, Right: xquery.Call("fn:data", xquery.ChildPath(qv, cols[0].ElementName))}
			return noRowWhere(qv, rows, differs), tBoolean, nil
		}
		values := xquery.Call("fn:data", &xquery.Path{
			Base:  rows,
			Steps: []xquery.PathStep{{Name: cols[0].ElementName}},
		})
		return &xquery.Binary{Op: "=", Left: operand, Right: values}, tBoolean, nil
	}
	items := make([]xquery.Expr, len(e.List))
	for i, item := range e.List {
		xe, it, err := g.genExpr(item, sc, agg)
		if err != nil {
			return nil, typeInfo{}, err
		}
		_, xe = g.coerceComparison(e.Operand, operand, ot, item, xe, it)
		items[i] = xe
	}
	if e.Not {
		differs := make([]xquery.Expr, len(items))
		for i, item := range items {
			differs[i] = &xquery.Binary{Op: "!=", Left: operand, Right: item}
		}
		return xquery.JoinConjuncts(differs), tBoolean, nil
	}
	return &xquery.Binary{Op: "=", Left: operand, Right: &xquery.Seq{Items: items}}, tBoolean, nil
}

// noRowWhere is `fn:empty(for $v in rows where fn:not(differs) return $v)`:
// TRUE when every subquery row makes differs TRUE, an empty subquery
// included — the NOT IN test. A FLWOR rather than `every … satisfies`,
// which would rebind the context item an outer-join ON predicate reads.
func noRowWhere(v string, rows, differs xquery.Expr) xquery.Expr {
	return xquery.Call("fn:empty", &xquery.FLWOR{
		Clauses: []xquery.Clause{
			&xquery.For{Var: v, In: rows},
			&xquery.Where{Cond: xquery.Call("fn:not", differs)},
		},
		Return: xquery.VarRef(v),
	})
}

func (g *generator) genLike(e *qfront.LikeExpr, sc *qscope, agg *aggEnv) (xquery.Expr, typeInfo, error) {
	operand, ot, err := g.genExpr(e.Operand, sc, agg)
	if err != nil {
		return nil, typeInfo{}, err
	}
	pattern, pt, err := g.genExpr(e.Pattern, sc, agg)
	if err != nil {
		return nil, typeInfo{}, err
	}
	args := []xquery.Expr{
		atomized(typedExpr{E: operand, T: ot}),
		stringArg(typedExpr{E: pattern, T: pt}),
	}
	if e.Escape != nil {
		esc, et, err := g.genExpr(e.Escape, sc, agg)
		if err != nil {
			return nil, typeInfo{}, err
		}
		args = append(args, stringArg(typedExpr{E: esc, T: et}))
	}
	cond := xquery.Expr(xquery.Call("fn-bea:sql-like", args...))
	if e.Not {
		cond = &xquery.Binary{
			Op:    "and",
			Left:  xquery.Call("fn:exists", xquery.Call("fn:data", operand)),
			Right: xquery.Call("fn:not", cond),
		}
	}
	return cond, tBoolean, nil
}

func (g *generator) genScalarSubquery(e *qfront.SubqueryExpr, sc *qscope) (xquery.Expr, typeInfo, error) {
	rows, cols, err := g.genSelectStmt(e.Query, sc)
	if err != nil {
		return nil, typeInfo{}, err
	}
	if len(cols) != 1 {
		return nil, typeInfo{}, semErr(e.Pos, "scalar subquery must return exactly one column, got %d", len(cols))
	}
	value := xquery.Call("fn:data", &xquery.Path{
		Base:  rows,
		Steps: []xquery.PathStep{{Name: cols[0].ElementName}},
	})
	t := typeInfo{SQL: cols[0].SQL, X: cols[0].Type, Nullable: true}
	return value, t, nil
}

func (g *generator) genQuantified(e *qfront.QuantifiedExpr, sc *qscope, agg *aggEnv) (xquery.Expr, typeInfo, error) {
	left, lt, err := g.genExpr(e.Left, sc, agg)
	if err != nil {
		return nil, typeInfo{}, err
	}
	rows, cols, err := g.genSelectStmt(e.Subquery, sc)
	if err != nil {
		return nil, typeInfo{}, err
	}
	if len(cols) != 1 {
		return nil, typeInfo{}, semErr(e.Pos, "quantified subquery must return exactly one column, got %d", len(cols))
	}
	values := xquery.Call("fn:data", &xquery.Path{
		Base:  rows,
		Steps: []xquery.PathStep{{Name: cols[0].ElementName}},
	})
	op := comparisonXQ[e.Op]
	if e.Quant == qfront.QuantAny {
		// XQuery general comparisons are existential: x > (values) is
		// exactly x > ANY (subquery).
		return &xquery.Binary{Op: op, Left: left, Right: values}, tBoolean, nil
	}
	// ALL: every value must satisfy the comparison.
	qv := g.names.rowVar(0, zoneWhere)
	return &xquery.Quantified{
		Every:     true,
		Var:       qv,
		In:        values,
		Satisfies: &xquery.Binary{Op: op, Left: atomized(typedExpr{E: left, T: lt}), Right: xquery.VarRef(qv)},
	}, tBoolean, nil
}

// expandRowComparison rewrites a row-value comparison into scalar
// predicates per SQL-92: equality is the conjunction of element
// equalities, inequality its De Morgan dual, and orderings expand
// lexicographically ((a,b) < (c,d) ⇔ a<c OR (a=c AND b<d)).
func expandRowComparison(op qfront.BinaryOp, l, r *qfront.RowExpr, pos qfront.Pos) (qfront.Expr, error) {
	eq := func(i int) qfront.Expr {
		return &qfront.BinaryExpr{Pos: pos, Op: qfront.BinEq, Left: l.Items[i], Right: r.Items[i]}
	}
	conj := func(items []qfront.Expr, join qfront.BinaryOp) qfront.Expr {
		out := items[0]
		for _, item := range items[1:] {
			out = &qfront.BinaryExpr{Pos: pos, Op: join, Left: out, Right: item}
		}
		return out
	}
	switch op {
	case qfront.BinEq:
		parts := make([]qfront.Expr, len(l.Items))
		for i := range l.Items {
			parts[i] = eq(i)
		}
		return conj(parts, qfront.BinAnd), nil
	case qfront.BinNe:
		parts := make([]qfront.Expr, len(l.Items))
		for i := range l.Items {
			parts[i] = &qfront.BinaryExpr{Pos: pos, Op: qfront.BinNe, Left: l.Items[i], Right: r.Items[i]}
		}
		return conj(parts, qfront.BinOr), nil
	case qfront.BinLt, qfront.BinGt, qfront.BinLe, qfront.BinGe:
		strict := op
		if op == qfront.BinLe {
			strict = qfront.BinLt
		}
		if op == qfront.BinGe {
			strict = qfront.BinGt
		}
		// Lexicographic expansion, innermost element last.
		last := len(l.Items) - 1
		var out qfront.Expr = &qfront.BinaryExpr{Pos: pos, Op: op, Left: l.Items[last], Right: r.Items[last]}
		for i := last - 1; i >= 0; i-- {
			out = &qfront.BinaryExpr{
				Pos: pos, Op: qfront.BinOr,
				Left: &qfront.BinaryExpr{Pos: pos, Op: strict, Left: l.Items[i], Right: r.Items[i]},
				Right: &qfront.BinaryExpr{
					Pos: pos, Op: qfront.BinAnd,
					Left:  eq(i),
					Right: out,
				},
			}
		}
		return out, nil
	default:
		return nil, semErr(pos, "row value constructors do not support this operator")
	}
}

// genRowIn translates multi-column IN: (a, b) IN (SELECT x, y …) becomes a
// quantified membership test over the subquery's RECORD rows, and the list
// form (a, b) IN ((1, 2), (3, 4)) a disjunction of row equalities. NOT IN
// holds when the row differs from every member, (a, b) <> (x, y) being
// a <> x OR b <> y — TRUE only if some column pair is non-NULL and unequal.
func (g *generator) genRowIn(e *qfront.InExpr, row *qfront.RowExpr, sc *qscope, agg *aggEnv) (xquery.Expr, typeInfo, error) {
	// Per member, the row comparison joins its columns; across members
	// the list form joins the comparisons.
	op, join, across := qfront.BinEq, "and", "or"
	if e.Not {
		op, join, across = qfront.BinNe, "or", "and"
	}
	if e.Subquery != nil {
		rows, cols, err := g.genSelectStmt(e.Subquery, sc)
		if err != nil {
			return nil, typeInfo{}, err
		}
		if len(cols) != len(row.Items) {
			return nil, typeInfo{}, semErr(e.Pos, "IN subquery returns %d column(s) for a row of degree %d", len(cols), len(row.Items))
		}
		qv := g.names.rowVar(0, zoneWhere)
		var sat xquery.Expr
		for i, item := range row.Items {
			xe, it, err := g.genExpr(item, sc, agg)
			if err != nil {
				return nil, typeInfo{}, err
			}
			cmp := &xquery.Binary{Op: comparisonXQ[op],
				Left:  atomized(typedExpr{E: xe, T: it}),
				Right: xquery.Call("fn:data", xquery.ChildPath(qv, cols[i].ElementName)),
			}
			if sat == nil {
				sat = cmp
			} else {
				sat = &xquery.Binary{Op: join, Left: sat, Right: cmp}
			}
		}
		if e.Not {
			return noRowWhere(qv, rows, sat), tBoolean, nil
		}
		return &xquery.Quantified{Var: qv, In: rows, Satisfies: sat}, tBoolean, nil
	}
	var cond xquery.Expr
	for _, item := range e.List {
		other, ok := item.(*qfront.RowExpr)
		if !ok {
			return nil, typeInfo{}, semErr(item.Position(), "IN list for a row value must contain row values")
		}
		expanded, err := expandRowComparison(op, row, other, e.Pos)
		if err != nil {
			return nil, typeInfo{}, err
		}
		cmp, _, err := g.genExpr(expanded, sc, agg)
		if err != nil {
			return nil, typeInfo{}, err
		}
		if cond == nil {
			cond = cmp
		} else {
			cond = &xquery.Binary{Op: across, Left: cond, Right: cmp}
		}
	}
	if cond == nil {
		return nil, typeInfo{}, semErr(e.Pos, "empty IN list")
	}
	return cond, tBoolean, nil
}
