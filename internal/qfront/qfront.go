// Package qfront defines the typed query AST the SQL-92 front end
// (internal/sqlparser) emits, plus the Frontend seam the translation
// kernel consumes.
//
// The paper's architecture is a SQL-92 surface feeding a reusable
// translation core (resultset nodes, query contexts, function mapping,
// type inference). This package is that seam made explicit: the kernel
// in internal/translator imports this package and never the parser, so
// semantic validation, RSN restructuring, XQuery generation, planning,
// compile caching and streaming see no concrete syntax
// (TestKernelImportBoundary pins it).
//
// The AST keeps SQL's relational shape (SELECT blocks, table references,
// the SQL-92 expression repertoire) because that is what the kernel's
// query-context machinery (§3.4.3 of the paper) is built around.
// Node.SQL() renders the canonical relational form of any node.
package qfront

import "fmt"

// Pos is a 1-based source position in the original query text.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("line %d, column %d", p.Line, p.Col) }

// SQLKeywords is the SQL-92 reserved-word subset the canonical rendering
// (Node.SQL) must re-delimit when it appears as an identifier. The SQL
// front end shares this map so its lexer and the renderer can never
// disagree about what is reserved.
var SQLKeywords = map[string]bool{
	"ALL": true, "AND": true, "ANY": true, "AS": true, "ASC": true,
	"AVG": true, "BETWEEN": true, "BOTH": true, "BY": true, "CASE": true,
	"CAST": true, "CHAR": true, "CHARACTER": true, "COALESCE": true,
	"COUNT": true, "CROSS": true, "CURRENT_DATE": true, "CURRENT_TIME": true,
	"CURRENT_TIMESTAMP": true, "DATE": true, "DEC": true, "DECIMAL": true,
	"DESC": true, "DISTINCT": true, "DOUBLE": true, "ELSE": true, "END": true,
	"ESCAPE": true, "EXCEPT": true, "EXISTS": true, "EXTRACT": true,
	"FETCH": true, "FIRST": true,
	"FALSE": true, "FLOAT": true, "FOR": true, "FROM": true, "FULL": true,
	"GROUP": true, "HAVING": true, "IN": true, "INNER": true, "INT": true,
	"INTEGER": true, "INTERSECT": true, "IS": true, "JOIN": true,
	"LEADING": true, "LEFT": true, "LIKE": true, "LOWER": true, "MAX": true,
	"MIN": true, "NATURAL": true, "NOT": true, "NULL": true, "NULLIF": true,
	"NEXT": true, "NUMERIC": true, "ON": true, "ONLY": true, "OR": true,
	"ORDER": true, "OUTER": true,
	"POSITION": true, "PRECISION": true, "REAL": true, "RIGHT": true,
	"ROW": true, "ROWS": true,
	"SELECT": true, "SMALLINT": true, "SOME": true, "SUBSTRING": true,
	"SUM": true, "THEN": true, "TIME": true, "TIMESTAMP": true,
	"TRAILING": true, "TRIM": true, "TRUE": true, "UNION": true,
	"UPPER": true, "USING": true, "VARCHAR": true, "WHEN": true,
	"WHERE": true, "WITH": true,
}

func isIdentStart(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func isIdentPart(b byte) bool {
	return isIdentStart(b) || (b >= '0' && b <= '9') || b == '$' || b == '#'
}
