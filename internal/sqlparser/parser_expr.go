package sqlparser

import (
	"strings"

	"repro/internal/qfront"
)

// Expression grammar, SQL-92 precedence from loosest to tightest:
//
//	expr        := or
//	or          := and (OR and)*
//	and         := not (AND not)*
//	not         := NOT not | predicate
//	predicate   := rowValue [comparison | BETWEEN | IN | LIKE | IS NULL]
//	rowValue    := term ((+|-|'||') term)*
//	term        := factor ((*|/) factor)*
//	factor      := [+|-] primary
//	primary     := literal | ? | column | function | CASE | CAST | '(' … ')'
func (p *parser) parseExpr() (qfront.Expr, error) {
	return p.parseOr()
}

func (p *parser) parseOr() (qfront.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().Is("OR") {
		pos := p.advance().Pos
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &qfront.BinaryExpr{Pos: pos, Op: qfront.BinOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (qfront.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().Is("AND") {
		pos := p.advance().Pos
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &qfront.BinaryExpr{Pos: pos, Op: qfront.BinAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (qfront.Expr, error) {
	if p.peek().Is("NOT") {
		pos := p.advance().Pos
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &qfront.UnaryExpr{Pos: pos, Op: qfront.UnaryNot, Operand: inner}, nil
	}
	return p.parsePredicate()
}

var comparisonOps = map[string]qfront.BinaryOp{
	"=": qfront.BinEq, "<>": qfront.BinNe, "<": qfront.BinLt, "<=": qfront.BinLe, ">": qfront.BinGt, ">=": qfront.BinGe,
}

func (p *parser) parsePredicate() (qfront.Expr, error) {
	// EXISTS (subquery)
	if p.peek().Is("EXISTS") {
		pos := p.advance().Pos
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &qfront.ExistsExpr{Pos: pos, Subquery: sub}, nil
	}

	left, err := p.parseRowValue()
	if err != nil {
		return nil, err
	}

	// Comparison, possibly quantified.
	if p.peek().Type == TokOp {
		if op, ok := comparisonOps[p.peek().Text]; ok {
			pos := p.advance().Pos
			if p.peek().Is("ANY") || p.peek().Is("SOME") || p.peek().Is("ALL") {
				quant := qfront.QuantAny
				if p.peek().Is("ALL") {
					quant = qfront.QuantAll
				}
				p.advance()
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				sub, err := p.parseSelectStmt()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &qfront.QuantifiedExpr{Pos: pos, Op: op, Quant: quant, Left: left, Subquery: sub}, nil
			}
			right, err := p.parseRowValue()
			if err != nil {
				return nil, err
			}
			return &qfront.BinaryExpr{Pos: pos, Op: op, Left: left, Right: right}, nil
		}
	}

	not := false
	notPos := p.peek().Pos
	if p.peek().Is("NOT") &&
		(p.peekAt(1).Is("BETWEEN") || p.peekAt(1).Is("IN") || p.peekAt(1).Is("LIKE")) {
		p.advance()
		not = true
	}

	switch {
	case p.peek().Is("BETWEEN"):
		pos := p.advance().Pos
		low, err := p.parseRowValue()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AND"); err != nil {
			return nil, err
		}
		high, err := p.parseRowValue()
		if err != nil {
			return nil, err
		}
		if not {
			pos = notPos
		}
		return &qfront.BetweenExpr{Pos: pos, Not: not, Operand: left, Low: low, High: high}, nil

	case p.peek().Is("IN"):
		pos := p.advance().Pos
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &qfront.InExpr{Pos: pos, Not: not, Operand: left}
		if p.peek().Is("SELECT") {
			sub, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			in.Subquery = sub
		} else {
			for {
				e, err := p.parseRowValue()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.acceptOp(",") {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return in, nil

	case p.peek().Is("LIKE"):
		pos := p.advance().Pos
		pattern, err := p.parseRowValue()
		if err != nil {
			return nil, err
		}
		like := &qfront.LikeExpr{Pos: pos, Not: not, Operand: left, Pattern: pattern}
		if p.accept("ESCAPE") {
			esc, err := p.parseRowValue()
			if err != nil {
				return nil, err
			}
			like.Escape = esc
		}
		return like, nil

	case p.peek().Is("IS"):
		pos := p.advance().Pos
		isNot := p.accept("NOT")
		if err := p.expect("NULL"); err != nil {
			return nil, err
		}
		return &qfront.IsNullExpr{Pos: pos, Not: isNot, Operand: left}, nil
	}

	if not {
		return nil, errAt(notPos, "expected BETWEEN, IN or LIKE after NOT")
	}
	return left, nil
}

func (p *parser) parseRowValue() (qfront.Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op qfront.BinaryOp
		switch {
		case p.peek().IsOp("+"):
			op = qfront.BinAdd
		case p.peek().IsOp("-"):
			op = qfront.BinSub
		case p.peek().IsOp("||"):
			op = qfront.BinConcat
		default:
			return left, nil
		}
		pos := p.advance().Pos
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = &qfront.BinaryExpr{Pos: pos, Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseTerm() (qfront.Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		var op qfront.BinaryOp
		switch {
		case p.peek().IsOp("*"):
			op = qfront.BinMul
		case p.peek().IsOp("/"):
			op = qfront.BinDiv
		default:
			return left, nil
		}
		pos := p.advance().Pos
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = &qfront.BinaryExpr{Pos: pos, Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseFactor() (qfront.Expr, error) {
	switch {
	case p.peek().IsOp("-"):
		pos := p.advance().Pos
		operand, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return &qfront.UnaryExpr{Pos: pos, Op: qfront.UnaryMinus, Operand: operand}, nil
	case p.peek().IsOp("+"):
		pos := p.advance().Pos
		operand, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return &qfront.UnaryExpr{Pos: pos, Op: qfront.UnaryPlus, Operand: operand}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (qfront.Expr, error) {
	t := p.peek()
	pos := t.Pos
	switch t.Type {
	case TokInteger:
		p.advance()
		return &qfront.Literal{Pos: pos, Type: qfront.LitInteger, Text: t.Text}, nil
	case TokDecimal:
		p.advance()
		return &qfront.Literal{Pos: pos, Type: qfront.LitDecimal, Text: t.Text}, nil
	case TokFloat:
		p.advance()
		return &qfront.Literal{Pos: pos, Type: qfront.LitFloat, Text: t.Text}, nil
	case TokString:
		p.advance()
		return &qfront.Literal{Pos: pos, Type: qfront.LitString, Text: t.Text}, nil
	case TokParam:
		p.advance()
		p.paramCount++
		return &qfront.Param{Pos: pos, Index: p.paramCount}, nil
	case TokKeyword:
		return p.parseKeywordPrimary()
	case TokIdent, TokQuotedIdent:
		return p.parseNamePrimary()
	case TokOp:
		if t.Text == "(" {
			p.advance()
			if p.peek().Is("SELECT") {
				sub, err := p.parseSelectStmt()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &qfront.SubqueryExpr{Pos: pos, Query: sub}, nil
			}
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.peek().IsOp(",") {
				// Row value constructor: (a, b, …).
				row := &qfront.RowExpr{Pos: pos, Items: []qfront.Expr{inner}}
				for p.acceptOp(",") {
					item, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					row.Items = append(row.Items, item)
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return row, nil
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
	}
	return nil, errAt(pos, "expected expression, found %s", t)
}

// parseKeywordPrimary handles expressions that begin with a reserved word:
// NULL, TRUE/FALSE, CASE, CAST, datetime literals, special built-in
// function syntax, and keyword-named functions (COUNT, SUM, UPPER, …).
func (p *parser) parseKeywordPrimary() (qfront.Expr, error) {
	t := p.peek()
	pos := t.Pos
	switch t.Text {
	case "NULL":
		p.advance()
		return &qfront.Literal{Pos: pos, Type: qfront.LitNull, Text: "NULL"}, nil
	case "TRUE":
		p.advance()
		return &qfront.Literal{Pos: pos, Type: qfront.LitBoolean, Text: "true"}, nil
	case "FALSE":
		p.advance()
		return &qfront.Literal{Pos: pos, Type: qfront.LitBoolean, Text: "false"}, nil
	case "DATE", "TIME", "TIMESTAMP":
		// Datetime literal: DATE '2006-01-02'. Only when followed by a
		// string; otherwise fall through (e.g. a column named DATE is
		// not valid SQL-92 anyway, so this is safe).
		if p.peekAt(1).Type == TokString {
			p.advance()
			lit := p.advance()
			var lt qfront.LiteralType
			switch t.Text {
			case "DATE":
				lt = qfront.LitDate
			case "TIME":
				lt = qfront.LitTime
			default:
				lt = qfront.LitTimestamp
			}
			return &qfront.Literal{Pos: pos, Type: lt, Text: lit.Text}, nil
		}
		return nil, errAt(pos, "expected string literal after %s", t.Text)
	case "CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP":
		p.advance()
		return &qfront.FuncCall{Pos: pos, Name: t.Text}, nil
	case "CASE":
		return p.parseCase()
	case "CAST":
		return p.parseCast()
	case "EXTRACT":
		return p.parseExtract()
	case "POSITION":
		return p.parsePosition()
	case "SUBSTRING":
		return p.parseSubstring()
	case "TRIM":
		return p.parseTrim()
	}
	if functionKeywords[t.Text] && p.peekAt(1).IsOp("(") {
		return p.parseFuncCall()
	}
	return nil, errAt(pos, "expected expression, found %s", t)
}

// parseNamePrimary parses a column reference or a function call beginning
// with an identifier.
func (p *parser) parseNamePrimary() (qfront.Expr, error) {
	pos := p.peek().Pos
	if p.peekAt(1).IsOp("(") {
		return p.parseFuncCall()
	}
	first := p.advance().Text
	parts := []string{first}
	for p.peek().IsOp(".") {
		p.advance()
		name, err := p.expectIdent("name after '.'")
		if err != nil {
			return nil, err
		}
		parts = append(parts, name)
	}
	ref := &qfront.ColumnRef{Pos: pos}
	switch len(parts) {
	case 1:
		ref.Column = parts[0]
	case 2:
		ref.Qualifier, ref.Column = parts[0], parts[1]
	default:
		ref.SchemaParts = parts[:len(parts)-2]
		ref.Qualifier = parts[len(parts)-2]
		ref.Column = parts[len(parts)-1]
	}
	return ref, nil
}

func (p *parser) parseFuncCall() (qfront.Expr, error) {
	pos := p.peek().Pos
	name := strings.ToUpper(p.advance().Text)
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	f := &qfront.FuncCall{Pos: pos, Name: name}
	if p.acceptOp(")") {
		return f, nil
	}
	if p.peek().IsOp("*") && name == "COUNT" {
		p.advance()
		f.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.accept("DISTINCT") {
		f.Distinct = true
	} else {
		p.accept("ALL")
	}
	for {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, arg)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if f.Distinct && len(f.Args) != 1 {
		return nil, errAt(pos, "%s(DISTINCT …) takes exactly one argument", name)
	}
	return f, nil
}

func (p *parser) parseCase() (qfront.Expr, error) {
	pos := p.advance().Pos // CASE
	c := &qfront.CaseExpr{Pos: pos}
	if !p.peek().Is("WHEN") {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = operand
	}
	for p.accept("WHEN") {
		when, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, qfront.WhenClause{When: when, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, errAt(pos, "CASE requires at least one WHEN clause")
	}
	if p.accept("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expect("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseCast() (qfront.Expr, error) {
	pos := p.advance().Pos // CAST
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	operand, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	tn, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &qfront.CastExpr{Pos: pos, Operand: operand, Type: tn}, nil
}

func (p *parser) parseTypeName() (qfront.TypeName, error) {
	t := p.peek()
	if t.Type != TokKeyword && t.Type != TokIdent {
		return qfront.TypeName{}, errAt(t.Pos, "expected type name, found %s", t)
	}
	p.advance()
	tn := qfront.TypeName{Name: t.Text, Precision: -1, Scale: -1}
	switch t.Text {
	case "CHARACTER", "CHAR":
		tn.Name = "CHAR"
		if p.accept("VARYING") { // CHARACTER VARYING
			tn.Name = "VARCHAR"
		}
	case "DOUBLE":
		p.accept("PRECISION")
		tn.Name = "DOUBLE"
	case "DEC", "NUMERIC":
		tn.Name = "DECIMAL"
	case "INT":
		tn.Name = "INTEGER"
	}
	if p.acceptOp("(") {
		prec := p.peek()
		if prec.Type != TokInteger {
			return qfront.TypeName{}, errAt(prec.Pos, "expected precision, found %s", prec)
		}
		p.advance()
		tn.Precision = atoiSafe(prec.Text)
		if p.acceptOp(",") {
			sc := p.peek()
			if sc.Type != TokInteger {
				return qfront.TypeName{}, errAt(sc.Pos, "expected scale, found %s", sc)
			}
			p.advance()
			tn.Scale = atoiSafe(sc.Text)
		}
		if err := p.expectOp(")"); err != nil {
			return qfront.TypeName{}, err
		}
	}
	return tn, nil
}

func atoiSafe(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		n = n*10 + int(s[i]-'0')
	}
	return n
}

// parseExtract parses EXTRACT(field FROM expr) into a FuncCall named
// EXTRACT_<FIELD>.
func (p *parser) parseExtract() (qfront.Expr, error) {
	pos := p.advance().Pos
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	field := p.peek()
	if field.Type != TokIdent && field.Type != TokKeyword {
		return nil, errAt(field.Pos, "expected datetime field, found %s", field)
	}
	p.advance()
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &qfront.FuncCall{Pos: pos, Name: "EXTRACT_" + field.Text, Args: []qfront.Expr{arg}}, nil
}

// parsePosition parses POSITION(needle IN haystack) into POSITION(needle, haystack).
func (p *parser) parsePosition() (qfront.Expr, error) {
	pos := p.advance().Pos
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	needle, err := p.parseRowValue()
	if err != nil {
		return nil, err
	}
	if err := p.expect("IN"); err != nil {
		return nil, err
	}
	hay, err := p.parseRowValue()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &qfront.FuncCall{Pos: pos, Name: "POSITION", Args: []qfront.Expr{needle, hay}}, nil
}

// parseSubstring parses both SUBSTRING(x FROM start [FOR len]) and the
// comma form SUBSTRING(x, start [, len]).
func (p *parser) parseSubstring() (qfront.Expr, error) {
	pos := p.advance().Pos
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	src, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	f := &qfront.FuncCall{Pos: pos, Name: "SUBSTRING", Args: []qfront.Expr{src}}
	if p.accept("FROM") {
		start, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, start)
		if p.accept("FOR") {
			length, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, length)
		}
	} else {
		for p.acceptOp(",") {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, arg)
		}
	}
	if len(f.Args) < 2 {
		return nil, errAt(pos, "SUBSTRING requires a start position")
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return f, nil
}

// parseTrim parses TRIM([LEADING|TRAILING|BOTH] [chars] FROM str) and the
// plain TRIM(str) form, producing TRIM/LTRIM/RTRIM calls.
func (p *parser) parseTrim() (qfront.Expr, error) {
	pos := p.advance().Pos
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	name := "TRIM"
	switch {
	case p.accept("LEADING"):
		name = "LTRIM"
	case p.accept("TRAILING"):
		name = "RTRIM"
	case p.accept("BOTH"):
		name = "TRIM"
	}
	var args []qfront.Expr
	if !p.peek().Is("FROM") {
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, first)
	}
	if p.accept("FROM") {
		src, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// Normalize to (source [, chars]) argument order.
		if len(args) == 1 {
			args = []qfront.Expr{src, args[0]}
		} else {
			args = []qfront.Expr{src}
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if len(args) == 0 {
		return nil, errAt(pos, "TRIM requires an argument")
	}
	return &qfront.FuncCall{Pos: pos, Name: name, Args: args}, nil
}
