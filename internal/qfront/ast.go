package qfront

import (
	"fmt"
	"strings"
)

// Node is any AST node. Every node carries its source position for
// error reporting during semantic validation.
type Node interface {
	Position() Pos
	// SQL renders the node back to SQL text (canonicalized: uppercase
	// keywords, explicit parentheses where the parse implied them).
	SQL() string
}

// SelectStmt is a full <query expression>: a query body (possibly a set
// operation tree) with an optional trailing ORDER BY.
type SelectStmt struct {
	Pos     Pos
	Body    QueryExpr
	OrderBy []OrderItem
	// Limit is the row count of a FETCH FIRST n ROWS ONLY clause — the
	// SQL:2008 spelling reporting tools use for top-N queries, accepted
	// here as an extension beyond SQL-92. -1 means no limit.
	Limit int
	// ParamCount is the number of `?` markers found in the statement,
	// filled in by the parser for prepared-statement support.
	ParamCount int
}

// Position implements Node.
func (s *SelectStmt) Position() Pos { return s.Pos }

// SQL implements Node.
func (s *SelectStmt) SQL() string {
	var b strings.Builder
	b.WriteString(s.Body.SQL())
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.SQL())
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " FETCH FIRST %d ROWS ONLY", s.Limit)
	}
	return b.String()
}

// QueryExpr is a query body: a single SELECT block, or a set operation
// combining two query bodies.
type QueryExpr interface {
	Node
	queryExpr()
}

// QuerySpec is one SELECT–FROM–WHERE–GROUP BY–HAVING block. This is the SQL
// "view" abstraction the paper's resultset nodes are built around.
type QuerySpec struct {
	Pos      Pos
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
}

func (*QuerySpec) queryExpr() {}

// Position implements Node.
func (q *QuerySpec) Position() Pos { return q.Pos }

// SQL implements Node.
func (q *QuerySpec) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range q.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.SQL())
	}
	if len(q.From) > 0 {
		b.WriteString(" FROM ")
		for i, t := range q.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(t.SQL())
		}
	}
	if q.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(q.Where.SQL())
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.SQL())
		}
	}
	if q.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(q.Having.SQL())
	}
	return b.String()
}

// SetOpType is a SQL set operation.
type SetOpType int

// Set operations.
const (
	SetUnion SetOpType = iota
	SetExcept
	SetIntersect
)

func (t SetOpType) String() string {
	switch t {
	case SetUnion:
		return "UNION"
	case SetExcept:
		return "EXCEPT"
	case SetIntersect:
		return "INTERSECT"
	default:
		return fmt.Sprintf("SetOpType(%d)", int(t))
	}
}

// SetOpExpr combines two query bodies with UNION/EXCEPT/INTERSECT.
// All preserves duplicates (UNION ALL etc.); the default is set semantics.
type SetOpExpr struct {
	Pos   Pos
	Op    SetOpType
	All   bool
	Left  QueryExpr
	Right QueryExpr
}

func (*SetOpExpr) queryExpr() {}

// Position implements Node.
func (s *SetOpExpr) Position() Pos { return s.Pos }

// SQL implements Node.
func (s *SetOpExpr) SQL() string {
	op := s.Op.String()
	if s.All {
		op += " ALL"
	}
	return fmt.Sprintf("(%s) %s (%s)", s.Left.SQL(), op, s.Right.SQL())
}

// SelectItem is one projection item: an expression with an optional alias,
// or a wildcard (`*` or `T.*`).
type SelectItem struct {
	Pos       Pos
	Expr      Expr   // nil when Wildcard
	Alias     string // AS name (empty when none)
	Wildcard  bool
	Qualifier string // for T.* wildcards; empty for bare *
}

// Position implements Node.
func (s SelectItem) Position() Pos { return s.Pos }

// SQL implements Node.
func (s SelectItem) SQL() string {
	if s.Wildcard {
		if s.Qualifier != "" {
			return s.Qualifier + ".*"
		}
		return "*"
	}
	if s.Alias != "" {
		return s.Expr.SQL() + " AS " + quoteIdentIfNeeded(s.Alias)
	}
	return s.Expr.SQL()
}

// OrderItem is one ORDER BY entry. An integer literal expression is a
// SQL-92 ordinal reference into the select list.
type OrderItem struct {
	Pos  Pos
	Expr Expr
	Desc bool
}

// Position implements Node.
func (o OrderItem) Position() Pos { return o.Pos }

// SQL implements Node.
func (o OrderItem) SQL() string {
	s := o.Expr.SQL()
	if o.Desc {
		s += " DESC"
	}
	return s
}

// TableRef is a FROM-clause item.
type TableRef interface {
	Node
	tableRef()
}

// TableName references a base table: [catalog.][schema.]name [AS alias].
// In the AquaLogic mapping, catalog is the application, schema the .ds file
// path, and name the data service function.
type TableName struct {
	Pos     Pos
	Catalog string
	Schema  string
	Name    string
	Alias   string
}

func (*TableName) tableRef() {}

// Position implements Node.
func (t *TableName) Position() Pos { return t.Pos }

// SQL implements Node.
func (t *TableName) SQL() string {
	var parts []string
	if t.Catalog != "" {
		parts = append(parts, quoteIdentIfNeeded(t.Catalog))
	}
	if t.Schema != "" {
		parts = append(parts, quoteIdentIfNeeded(t.Schema))
	}
	parts = append(parts, quoteIdentIfNeeded(t.Name))
	s := strings.Join(parts, ".")
	if t.Alias != "" {
		s += " AS " + quoteIdentIfNeeded(t.Alias)
	}
	return s
}

// RangeVar returns the name that qualifies columns of this table: the alias
// if present, else the table name.
func (t *TableName) RangeVar() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// DerivedTable is a parenthesized subquery in the FROM clause. SQL-92
// requires an alias.
type DerivedTable struct {
	Pos           Pos
	Query         *SelectStmt
	Alias         string
	ColumnAliases []string // optional derived column list: AS T (c1, c2)
}

func (*DerivedTable) tableRef() {}

// Position implements Node.
func (d *DerivedTable) Position() Pos { return d.Pos }

// SQL implements Node.
func (d *DerivedTable) SQL() string {
	s := "(" + d.Query.SQL() + ") AS " + quoteIdentIfNeeded(d.Alias)
	if len(d.ColumnAliases) > 0 {
		quoted := make([]string, len(d.ColumnAliases))
		for i, a := range d.ColumnAliases {
			quoted[i] = quoteIdentIfNeeded(a)
		}
		s += " (" + strings.Join(quoted, ", ") + ")"
	}
	return s
}

// JoinType is a SQL join flavor.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeftOuter
	JoinRightOuter
	JoinFullOuter
	JoinCross
)

func (t JoinType) String() string {
	switch t {
	case JoinInner:
		return "INNER JOIN"
	case JoinLeftOuter:
		return "LEFT OUTER JOIN"
	case JoinRightOuter:
		return "RIGHT OUTER JOIN"
	case JoinFullOuter:
		return "FULL OUTER JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return fmt.Sprintf("JoinType(%d)", int(t))
	}
}

// JoinExpr is a joined table. Exactly one of Cond, Using, or Natural
// describes the join condition for non-cross joins.
type JoinExpr struct {
	Pos     Pos
	Type    JoinType
	Left    TableRef
	Right   TableRef
	Cond    Expr     // ON condition
	Using   []string // USING (col, ...)
	Natural bool
	Alias   string // a parenthesized join can carry an alias: (A JOIN B ...) AS P
}

func (*JoinExpr) tableRef() {}

// Position implements Node.
func (j *JoinExpr) Position() Pos { return j.Pos }

// SQL implements Node.
func (j *JoinExpr) SQL() string {
	var b strings.Builder
	b.WriteString("(")
	b.WriteString(j.Left.SQL())
	b.WriteString(" ")
	if j.Natural {
		b.WriteString("NATURAL ")
	}
	b.WriteString(j.Type.String())
	b.WriteString(" ")
	b.WriteString(j.Right.SQL())
	if j.Cond != nil {
		b.WriteString(" ON ")
		b.WriteString(j.Cond.SQL())
	}
	if len(j.Using) > 0 {
		quoted := make([]string, len(j.Using))
		for i, u := range j.Using {
			quoted[i] = quoteIdentIfNeeded(u)
		}
		b.WriteString(" USING (")
		b.WriteString(strings.Join(quoted, ", "))
		b.WriteString(")")
	}
	b.WriteString(")")
	if j.Alias != "" {
		b.WriteString(" AS ")
		b.WriteString(quoteIdentIfNeeded(j.Alias))
	}
	return b.String()
}

// quoteIdentIfNeeded renders an identifier bare only when it would lex
// back as a single identifier token: names that are empty, digit-leading,
// reserved words, or carry punctuation (all reachable through delimited
// identifiers in the source) are re-delimited, so SQL() always re-parses.
func quoteIdentIfNeeded(s string) string {
	if bareIdent(s) && !SQLKeywords[strings.ToUpper(s)] {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// bareIdent reports whether s lexes as one plain identifier token. A
// schema path such as TestDataServices/schemas does not: '/' lexes as
// division, so such names are delimited.
func bareIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return false
		}
	}
	return true
}

// funcNameSQL renders a function name: keyword-named built-ins (COUNT,
// LEFT, …) must stay bare to parse as calls; other names follow
// identifier quoting.
func funcNameSQL(s string) string {
	if SQLKeywords[strings.ToUpper(s)] {
		return s
	}
	return quoteIdentIfNeeded(s)
}
