package qfront

import (
	"fmt"
	"strings"
)

// Expr is a SQL value or boolean expression node.
type Expr interface {
	Node
	expr()
}

// ColumnRef is a (possibly qualified) column reference. Qualifier is the
// range variable / table name part ("CUSTOMERS" in CUSTOMERS.CUSTOMERID),
// empty for unqualified references; longer chains (schema.table.column)
// keep the extra leading parts in SchemaParts.
type ColumnRef struct {
	Pos         Pos
	SchemaParts []string // leading qualifiers beyond the range variable
	Qualifier   string
	Column      string
}

func (*ColumnRef) expr() {}

// Position implements Node.
func (c *ColumnRef) Position() Pos { return c.Pos }

// SQL implements Node.
func (c *ColumnRef) SQL() string {
	var parts []string
	for _, p := range c.SchemaParts {
		parts = append(parts, quoteIdentIfNeeded(p))
	}
	if c.Qualifier != "" {
		parts = append(parts, quoteIdentIfNeeded(c.Qualifier))
	}
	parts = append(parts, quoteIdentIfNeeded(c.Column))
	return strings.Join(parts, ".")
}

// LiteralType classifies literal constants.
type LiteralType int

// Literal types.
const (
	LitInteger LiteralType = iota
	LitDecimal
	LitFloat
	LitString
	LitBoolean
	LitNull
	LitDate      // DATE 'YYYY-MM-DD'
	LitTime      // TIME 'HH:MM:SS'
	LitTimestamp // TIMESTAMP 'YYYY-MM-DD HH:MM:SS'
)

// Literal is a constant. Text is the canonical lexical form (for strings,
// unquoted and unescaped).
type Literal struct {
	Pos  Pos
	Type LiteralType
	Text string
}

func (*Literal) expr() {}

// Position implements Node.
func (l *Literal) Position() Pos { return l.Pos }

// SQL implements Node.
func (l *Literal) SQL() string {
	switch l.Type {
	case LitString:
		return "'" + strings.ReplaceAll(l.Text, "'", "''") + "'"
	case LitNull:
		return "NULL"
	case LitDate:
		return "DATE '" + l.Text + "'"
	case LitTime:
		return "TIME '" + l.Text + "'"
	case LitTimestamp:
		return "TIMESTAMP '" + l.Text + "'"
	default:
		return l.Text
	}
}

// Param is a `?` parameter marker; Index is its 1-based position in the
// statement, assigned left to right as JDBC does.
type Param struct {
	Pos   Pos
	Index int
}

func (*Param) expr() {}

// Position implements Node.
func (p *Param) Position() Pos { return p.Pos }

// SQL implements Node.
func (p *Param) SQL() string { return "?" }

// UnaryOp is a unary operator.
type UnaryOp int

// Unary operators.
const (
	UnaryMinus UnaryOp = iota
	UnaryPlus
	UnaryNot
)

func (op UnaryOp) String() string {
	switch op {
	case UnaryMinus:
		return "-"
	case UnaryPlus:
		return "+"
	case UnaryNot:
		return "NOT"
	default:
		return fmt.Sprintf("UnaryOp(%d)", int(op))
	}
}

// UnaryExpr applies a unary operator.
type UnaryExpr struct {
	Pos     Pos
	Op      UnaryOp
	Operand Expr
}

func (*UnaryExpr) expr() {}

// Position implements Node.
func (u *UnaryExpr) Position() Pos { return u.Pos }

// SQL implements Node.
func (u *UnaryExpr) SQL() string {
	if u.Op == UnaryNot {
		return "NOT (" + u.Operand.SQL() + ")"
	}
	operand := operandSQL(u.Operand, precUnary)
	// Adjacent minus signs would lex as a SQL line comment, so a nested
	// negation renders parenthesized to stay re-parseable.
	if u.Op == UnaryMinus && strings.HasPrefix(operand, "-") {
		return u.Op.String() + "(" + operand + ")"
	}
	return u.Op.String() + operand
}

// Binding strength of rendered expressions, loosest first, as the SQL-92
// grammar nests them: NOT, then predicates (comparison, BETWEEN, IN, LIKE,
// IS NULL, EXISTS, quantified), then + - ||, then * /, then unary sign, then
// primaries. AND/OR render self-parenthesized, so they are primaries.
const (
	precNot = iota + 1
	precPredicate
	precAdditive
	precMultiplicative
	precUnary
	precPrimary
)

// precedence is how tightly e's rendering binds.
func precedence(e Expr) int {
	switch n := e.(type) {
	case *UnaryExpr:
		if n.Op == UnaryNot {
			return precNot
		}
		return precUnary
	case *BinaryExpr:
		switch {
		case n.Op.Logical():
			return precPrimary
		case n.Op.Comparison():
			return precPredicate
		case n.Op == BinMul || n.Op == BinDiv:
			return precMultiplicative
		default:
			return precAdditive
		}
	case *BetweenExpr, *InExpr, *LikeExpr, *IsNullExpr, *ExistsExpr, *QuantifiedExpr:
		return precPredicate
	}
	return precPrimary
}

// operandSQL renders e where the grammar wants something binding at least
// as tightly as min, parenthesizing it otherwise.
func operandSQL(e Expr, min int) string {
	if precedence(e) < min {
		return "(" + e.SQL() + ")"
	}
	return e.SQL()
}

// BinaryOp is a binary operator (arithmetic, comparison, logical, concat).
type BinaryOp int

// Binary operators.
const (
	BinAdd BinaryOp = iota
	BinSub
	BinMul
	BinDiv
	BinConcat
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
	BinAnd
	BinOr
)

func (op BinaryOp) String() string {
	switch op {
	case BinAdd:
		return "+"
	case BinSub:
		return "-"
	case BinMul:
		return "*"
	case BinDiv:
		return "/"
	case BinConcat:
		return "||"
	case BinEq:
		return "="
	case BinNe:
		return "<>"
	case BinLt:
		return "<"
	case BinLe:
		return "<="
	case BinGt:
		return ">"
	case BinGe:
		return ">="
	case BinAnd:
		return "AND"
	case BinOr:
		return "OR"
	default:
		return fmt.Sprintf("BinaryOp(%d)", int(op))
	}
}

// Comparison reports whether the operator is a comparison operator.
func (op BinaryOp) Comparison() bool { return op >= BinEq && op <= BinGe }

// Logical reports whether the operator is AND or OR.
func (op BinaryOp) Logical() bool { return op == BinAnd || op == BinOr }

// Arithmetic reports whether the operator is numeric arithmetic.
func (op BinaryOp) Arithmetic() bool { return op >= BinAdd && op <= BinDiv }

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Pos   Pos
	Op    BinaryOp
	Left  Expr
	Right Expr
}

func (*BinaryExpr) expr() {}

// Position implements Node.
func (b *BinaryExpr) Position() Pos { return b.Pos }

// SQL implements Node. Operands are parenthesized where the grammar would
// otherwise bind them differently: comparisons do not chain, and the
// arithmetic operators associate left, so a right operand of the same
// strength needs parentheses (A - (B - C)).
func (b *BinaryExpr) SQL() string {
	if b.Op.Logical() {
		return "(" + b.Left.SQL() + " " + b.Op.String() + " " + b.Right.SQL() + ")"
	}
	left, right := precAdditive, precAdditive
	switch precedence(b) {
	case precAdditive:
		right = precMultiplicative
	case precMultiplicative:
		left, right = precMultiplicative, precUnary
	}
	return operandSQL(b.Left, left) + " " + b.Op.String() + " " + operandSQL(b.Right, right)
}

// FuncCall is a function invocation: scalar (UPPER, CONCAT, …) or aggregate
// (COUNT, SUM, AVG, MIN, MAX). COUNT(*) sets Star; COUNT(DISTINCT x) sets
// Distinct.
type FuncCall struct {
	Pos      Pos
	Name     string // canonical uppercase
	Args     []Expr
	Distinct bool
	Star     bool
}

func (*FuncCall) expr() {}

// Position implements Node.
func (f *FuncCall) Position() Pos { return f.Pos }

// SQL implements Node.
func (f *FuncCall) SQL() string {
	if f.Star {
		return funcNameSQL(f.Name) + "(*)"
	}
	var args []string
	for _, a := range f.Args {
		args = append(args, a.SQL())
	}
	inner := strings.Join(args, ", ")
	if f.Distinct {
		inner = "DISTINCT " + inner
	}
	return funcNameSQL(f.Name) + "(" + inner + ")"
}

// aggregateNames is the SQL-92 aggregate function set.
var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether the call is a SQL-92 aggregate.
func (f *FuncCall) IsAggregate() bool { return aggregateNames[f.Name] }

// WhenClause is one WHEN…THEN… arm of a CASE expression.
type WhenClause struct {
	When Expr
	Then Expr
}

// CaseExpr is a CASE expression. Operand is non-nil for the simple form
// (CASE x WHEN v THEN …), nil for the searched form (CASE WHEN cond THEN …).
type CaseExpr struct {
	Pos     Pos
	Operand Expr
	Whens   []WhenClause
	Else    Expr
}

func (*CaseExpr) expr() {}

// Position implements Node.
func (c *CaseExpr) Position() Pos { return c.Pos }

// SQL implements Node.
func (c *CaseExpr) SQL() string {
	var b strings.Builder
	b.WriteString("CASE")
	if c.Operand != nil {
		b.WriteString(" " + c.Operand.SQL())
	}
	for _, w := range c.Whens {
		b.WriteString(" WHEN " + w.When.SQL() + " THEN " + w.Then.SQL())
	}
	if c.Else != nil {
		b.WriteString(" ELSE " + c.Else.SQL())
	}
	b.WriteString(" END")
	return b.String()
}

// TypeName is a SQL data type as written in a CAST.
type TypeName struct {
	Name      string // canonical: INTEGER, SMALLINT, DECIMAL, FLOAT, DOUBLE, CHAR, VARCHAR, DATE, TIME, TIMESTAMP
	Precision int    // -1 when unspecified
	Scale     int    // -1 when unspecified
}

// SQL renders the type.
func (t TypeName) SQL() string {
	switch {
	case t.Precision >= 0 && t.Scale >= 0:
		return fmt.Sprintf("%s(%d, %d)", t.Name, t.Precision, t.Scale)
	case t.Precision >= 0:
		return fmt.Sprintf("%s(%d)", t.Name, t.Precision)
	default:
		return t.Name
	}
}

// CastExpr is CAST(expr AS type).
type CastExpr struct {
	Pos     Pos
	Operand Expr
	Type    TypeName
}

func (*CastExpr) expr() {}

// Position implements Node.
func (c *CastExpr) Position() Pos { return c.Pos }

// SQL implements Node.
func (c *CastExpr) SQL() string {
	return "CAST(" + c.Operand.SQL() + " AS " + c.Type.SQL() + ")"
}

// BetweenExpr is x [NOT] BETWEEN low AND high.
type BetweenExpr struct {
	Pos     Pos
	Not     bool
	Operand Expr
	Low     Expr
	High    Expr
}

func (*BetweenExpr) expr() {}

// Position implements Node.
func (b *BetweenExpr) Position() Pos { return b.Pos }

// SQL implements Node.
func (b *BetweenExpr) SQL() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return operandSQL(b.Operand, precAdditive) + " " + not + "BETWEEN " + operandSQL(b.Low, precAdditive) + " AND " + operandSQL(b.High, precAdditive)
}

// InExpr is x [NOT] IN (list) or x [NOT] IN (subquery).
type InExpr struct {
	Pos      Pos
	Not      bool
	Operand  Expr
	List     []Expr      // nil when Subquery form
	Subquery *SelectStmt // nil when list form
}

func (*InExpr) expr() {}

// Position implements Node.
func (i *InExpr) Position() Pos { return i.Pos }

// SQL implements Node.
func (i *InExpr) SQL() string {
	not := ""
	if i.Not {
		not = "NOT "
	}
	operand := operandSQL(i.Operand, precAdditive)
	if i.Subquery != nil {
		return operand + " " + not + "IN (" + i.Subquery.SQL() + ")"
	}
	var parts []string
	for _, e := range i.List {
		parts = append(parts, operandSQL(e, precAdditive))
	}
	return operand + " " + not + "IN (" + strings.Join(parts, ", ") + ")"
}

// ExistsExpr is EXISTS (subquery).
type ExistsExpr struct {
	Pos      Pos
	Subquery *SelectStmt
}

func (*ExistsExpr) expr() {}

// Position implements Node.
func (e *ExistsExpr) Position() Pos { return e.Pos }

// SQL implements Node.
func (e *ExistsExpr) SQL() string { return "EXISTS (" + e.Subquery.SQL() + ")" }

// LikeExpr is x [NOT] LIKE pattern [ESCAPE esc].
type LikeExpr struct {
	Pos     Pos
	Not     bool
	Operand Expr
	Pattern Expr
	Escape  Expr // nil when absent
}

func (*LikeExpr) expr() {}

// Position implements Node.
func (l *LikeExpr) Position() Pos { return l.Pos }

// SQL implements Node.
func (l *LikeExpr) SQL() string {
	not := ""
	if l.Not {
		not = "NOT "
	}
	s := operandSQL(l.Operand, precAdditive) + " " + not + "LIKE " + operandSQL(l.Pattern, precAdditive)
	if l.Escape != nil {
		s += " ESCAPE " + operandSQL(l.Escape, precAdditive)
	}
	return s
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	Pos     Pos
	Not     bool
	Operand Expr
}

func (*IsNullExpr) expr() {}

// Position implements Node.
func (i *IsNullExpr) Position() Pos { return i.Pos }

// SQL implements Node.
func (i *IsNullExpr) SQL() string {
	if i.Not {
		return operandSQL(i.Operand, precAdditive) + " IS NOT NULL"
	}
	return operandSQL(i.Operand, precAdditive) + " IS NULL"
}

// SubqueryExpr is a scalar subquery used in expression position.
type SubqueryExpr struct {
	Pos   Pos
	Query *SelectStmt
}

func (*SubqueryExpr) expr() {}

// Position implements Node.
func (s *SubqueryExpr) Position() Pos { return s.Pos }

// SQL implements Node.
func (s *SubqueryExpr) SQL() string { return "(" + s.Query.SQL() + ")" }

// Quantifier is ANY/SOME or ALL in a quantified comparison.
type Quantifier int

// Quantifiers.
const (
	QuantAny Quantifier = iota // ANY and SOME are synonyms
	QuantAll
)

func (q Quantifier) String() string {
	if q == QuantAll {
		return "ALL"
	}
	return "ANY"
}

// QuantifiedExpr is x <op> ANY|ALL (subquery).
type QuantifiedExpr struct {
	Pos      Pos
	Op       BinaryOp // a comparison operator
	Quant    Quantifier
	Left     Expr
	Subquery *SelectStmt
}

func (*QuantifiedExpr) expr() {}

// Position implements Node.
func (q *QuantifiedExpr) Position() Pos { return q.Pos }

// SQL implements Node.
func (q *QuantifiedExpr) SQL() string {
	return operandSQL(q.Left, precAdditive) + " " + q.Op.String() + " " + q.Quant.String() + " (" + q.Subquery.SQL() + ")"
}

// RowExpr is a SQL-92 row value constructor: (a, b, …). It may appear as
// an operand of comparison and IN predicates; the translator expands row
// comparisons into column-wise conjunctions (equality) or lexicographic
// chains (ordering).
type RowExpr struct {
	Pos   Pos
	Items []Expr
}

func (*RowExpr) expr() {}

// Position implements Node.
func (r *RowExpr) Position() Pos { return r.Pos }

// SQL implements Node.
func (r *RowExpr) SQL() string {
	parts := make([]string, len(r.Items))
	for i, e := range r.Items {
		parts[i] = e.SQL()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
