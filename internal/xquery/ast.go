// Package xquery defines the abstract syntax of the XQuery dialect the
// SQL-to-XQuery translator generates and the evaluator executes: FLWOR
// expressions (with BEA's group-by extension, which the paper uses to
// translate SQL GROUP BY), element constructors with enclosed expressions,
// path expressions, filter predicates, function calls in the fn: and
// fn-bea: namespaces, conditional and quantified expressions, and casts
// written as constructor functions (xs:integer(...)).
//
// The serializer renders the paper's "patterned" layout: a query prolog of
// schema imports followed by the body, with FLWOR clauses on their own
// lines. Optimization of the emitted XQuery is explicitly out of scope,
// mirroring the paper's non-goal: the DSP engine (here internal/xqeval)
// is responsible for efficient execution.
package xquery

import "strings"

// Query is a complete XQuery: prolog plus body expression.
type Query struct {
	Prolog Prolog
	Body   Expr
}

// Prolog holds the query prolog: the schema imports naming each data
// service function's namespace and .xsd location.
type Prolog struct {
	SchemaImports []SchemaImport
}

// SchemaImport is one `import schema namespace` declaration.
type SchemaImport struct {
	Prefix    string // ns0, ns1, …
	Namespace string // ld:TestDataServices/CUSTOMERS
	Location  string // ld:TestDataServices/schemas/CUSTOMERS.xsd
}

// Expr is an XQuery expression node.
type Expr interface {
	exprNode()
}

// StringLit is a string literal.
type StringLit struct {
	Value string
}

func (*StringLit) exprNode() {}

// NumberLit is a numeric literal; Text preserves the lexical form the
// translator chose (which encodes the literal's XQuery type: integer,
// decimal, or double).
type NumberLit struct {
	Text string
}

func (*NumberLit) exprNode() {}

// EmptySeq is the literal empty sequence `()`.
type EmptySeq struct{}

func (*EmptySeq) exprNode() {}

// Var is a variable reference ($var1FR0).
type Var struct {
	Name string // without the leading $
}

func (*Var) exprNode() {}

// FuncCall calls a named function: a data service function
// (ns0:CUSTOMERS()), a standard function (fn:data), or a BEA extension
// (fn-bea:if-empty).
type FuncCall struct {
	Name string // prefixed name as written, e.g. "fn:data"
	Args []Expr
}

func (*FuncCall) exprNode() {}

// PathStep is one child-axis step with optional predicates.
type PathStep struct {
	Name       string // local element name, or "*"
	Predicates []Expr
}

// Path navigates child steps from a base expression:
// $var1FR0/CUSTOMERID, $tempvar1FR2/RECORD.
type Path struct {
	Base  Expr
	Steps []PathStep
}

func (*Path) exprNode() {}

// Filter applies predicate expressions to a base sequence:
// ns1:PAYMENTS()[($var1FR2/CUSTOMERID = CUSTID)]. Inside a predicate,
// relative paths resolve against the context item.
type Filter struct {
	Base       Expr
	Predicates []Expr
}

func (*Filter) exprNode() {}

// ContextItem is the XPath context item `.`, used in filter predicates.
type ContextItem struct{}

func (*ContextItem) exprNode() {}

// RelPath is a relative path from the context item inside a predicate:
// `CUSTID` in PAYMENTS()[$c/CUSTOMERID = CUSTID].
type RelPath struct {
	Steps []PathStep
}

func (*RelPath) exprNode() {}

// Binary applies a binary operator. Op is the XQuery spelling: general
// comparisons ("=", "!=", "<", "<=", ">", ">="), value comparisons ("eq",
// "ne", "lt", "le", "gt", "ge"), arithmetic ("+", "-", "*", "div", "mod"),
// and logic ("and", "or").
type Binary struct {
	Op    string
	Left  Expr
	Right Expr
}

func (*Binary) exprNode() {}

// Unary is unary minus.
type Unary struct {
	Op      string // "-"
	Operand Expr
}

func (*Unary) exprNode() {}

// If is `if (cond) then … else …`.
type If struct {
	Cond Expr
	Then Expr
	Else Expr
}

func (*If) exprNode() {}

// Cast renders as a constructor function: xs:integer(expr), matching the
// paper's generated casts (xs:integer(10)).
type Cast struct {
	Type    string // xs:integer, xs:decimal, xs:double, xs:string, …
	Operand Expr
}

func (*Cast) exprNode() {}

// Seq is a parenthesized sequence expression: (a, b, c).
type Seq struct {
	Items []Expr
}

func (*Seq) exprNode() {}

// Quantified is `some|every $var in seq satisfies cond`.
type Quantified struct {
	Every     bool
	Var       string
	In        Expr
	Satisfies Expr
}

func (*Quantified) exprNode() {}

// FLWOR is the for-let-where-(group by)-(order by)-return expression.
type FLWOR struct {
	Clauses []Clause
	Return  Expr
}

func (*FLWOR) exprNode() {}

// Clause is one FLWOR clause.
type Clause interface {
	clauseNode()
}

// For binds Var to each item of In. An optional At names a positional
// variable.
type For struct {
	Var string
	At  string // positional variable, empty when absent
	In  Expr
}

func (*For) clauseNode() {}

// Let binds Var to the full result of Expr.
type Let struct {
	Var  string
	Expr Expr
}

func (*Let) clauseNode() {}

// Where filters tuples.
type Where struct {
	Cond Expr
}

func (*Where) clauseNode() {}

// GroupKey is one grouping key of the BEA group-by extension: the key
// expression and the variable the key value is bound to for the return
// clause.
type GroupKey struct {
	Expr Expr
	Var  string
}

// GroupBy is BEA's XQuery group-by extension (the paper's §3.5 uses it to
// translate SQL GROUP BY):
//
//	group $row as $partition by $row/K1 as $k1, $row/K2 as $k2
//
// After the clause, $k1/$k2 bind each distinct key combination and
// $partition binds the sequence of $row values in that group.
type GroupBy struct {
	InVar        string // the tuple variable being grouped
	PartitionVar string // bound to each group's member sequence
	Keys         []GroupKey
}

func (*GroupBy) clauseNode() {}

// OrderSpec is one sort key.
type OrderSpec struct {
	Expr       Expr
	Descending bool
	// EmptyGreatest controls empty-sequence ordering; SQL-92 sorts NULLs
	// high in ascending order per this implementation's convention.
	EmptyGreatest bool
}

// OrderByClause sorts the tuple stream.
type OrderByClause struct {
	Specs []OrderSpec
}

func (*OrderByClause) clauseNode() {}

// ElemContent is content inside an element constructor: nested literal
// elements, literal text, or enclosed expressions.
type ElemContent interface {
	elemContent()
}

// TextContent is literal character content.
type TextContent struct {
	Text string
}

func (*TextContent) elemContent() {}

// Enclosed is an enclosed expression: { expr }.
type Enclosed struct {
	Expr Expr
}

func (*Enclosed) elemContent() {}

// ElementCtor is a direct element constructor. The generated queries build
// RECORDSET/RECORD wrappers and result-column elements with it. Names may
// contain dots (the paper emits <CUSTOMERS.CUSTOMERID> result elements).
type ElementCtor struct {
	Name    string
	Content []ElemContent
}

func (*ElementCtor) exprNode()    {}
func (*ElementCtor) elemContent() {}

// TextElem is the common <NAME>{expr}</NAME> pattern.
func TextElem(name string, e Expr) *ElementCtor {
	return &ElementCtor{Name: name, Content: []ElemContent{&Enclosed{Expr: e}}}
}

// VarRef is shorthand for a variable reference expression.
func VarRef(name string) *Var { return &Var{Name: name} }

// ChildPath is shorthand for $var/step.
func ChildPath(varName string, steps ...string) *Path {
	p := &Path{Base: VarRef(varName)}
	for _, s := range steps {
		p.Steps = append(p.Steps, PathStep{Name: s})
	}
	return p
}

// Call is shorthand for a function call.
func Call(name string, args ...Expr) *FuncCall {
	return &FuncCall{Name: name, Args: args}
}

// Str is shorthand for a string literal.
func Str(s string) *StringLit { return &StringLit{Value: s} }

// Num is shorthand for a numeric literal.
func Num(text string) *NumberLit { return &NumberLit{Text: text} }

// WalkExprs visits e and its sub-expressions depth-first, including FLWOR
// clause expressions and element-constructor content. It is used by tests
// and by the wrapper generator to inspect generated trees.
func WalkExprs(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch e := e.(type) {
	case *FuncCall:
		for _, a := range e.Args {
			WalkExprs(a, fn)
		}
	case *Path:
		WalkExprs(e.Base, fn)
		for _, s := range e.Steps {
			for _, p := range s.Predicates {
				WalkExprs(p, fn)
			}
		}
	case *Filter:
		WalkExprs(e.Base, fn)
		for _, p := range e.Predicates {
			WalkExprs(p, fn)
		}
	case *Binary:
		WalkExprs(e.Left, fn)
		WalkExprs(e.Right, fn)
	case *Unary:
		WalkExprs(e.Operand, fn)
	case *If:
		WalkExprs(e.Cond, fn)
		WalkExprs(e.Then, fn)
		WalkExprs(e.Else, fn)
	case *Cast:
		WalkExprs(e.Operand, fn)
	case *Seq:
		for _, it := range e.Items {
			WalkExprs(it, fn)
		}
	case *Quantified:
		WalkExprs(e.In, fn)
		WalkExprs(e.Satisfies, fn)
	case *FLWOR:
		for _, c := range e.Clauses {
			walkClause(c, fn)
		}
		WalkExprs(e.Return, fn)
	case *ElementCtor:
		for _, c := range e.Content {
			switch c := c.(type) {
			case *Enclosed:
				WalkExprs(c.Expr, fn)
			case *ElementCtor:
				WalkExprs(c, fn)
			}
		}
	}
}

// walkClause visits a FLWOR clause's expressions as WalkExprs does.
func walkClause(c Clause, fn func(Expr) bool) {
	switch c := c.(type) {
	case *For:
		WalkExprs(c.In, fn)
	case *Let:
		WalkExprs(c.Expr, fn)
	case *Where:
		WalkExprs(c.Cond, fn)
	case *GroupBy:
		for _, k := range c.Keys {
			WalkExprs(k.Expr, fn)
		}
	case *OrderByClause:
		for _, s := range c.Specs {
			WalkExprs(s.Expr, fn)
		}
	}
}

// FuncName splits a prefixed function name into prefix and local parts.
func FuncName(name string) (prefix, local string) {
	if i := strings.LastIndex(name, ":"); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}
