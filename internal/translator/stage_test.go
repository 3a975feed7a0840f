package translator

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/qfront"
	"repro/internal/sqlparser"
	"repro/internal/xquery"
)

// TestStageOneASTFigure5 checks the stage-one artifact for the paper's
// running example (Figure 5): SELECT * FROM CUSTOMERS parses to a query
// spec whose select list still holds the unexpanded column wildcard, under
// a single query context.
func TestStageOneASTFigure5(t *testing.T) {
	stmt, err := sqlparser.Parse("SELECT * FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := stmt.Body.(*qfront.QuerySpec)
	if !ok {
		t.Fatalf("body = %T", stmt.Body)
	}
	if len(spec.Items) != 1 || !spec.Items[0].Wildcard {
		t.Fatalf("stage one must keep the wildcard: %+v", spec.Items)
	}
	root := CaptureContexts(stmt)
	if root.Count() != 1 || root.Children[0].ID != 1 {
		t.Fatalf("contexts = %+v", root)
	}
}

// TestStageTwoWildcardExpansionFigure6 checks the stage-two artifact
// (Figure 6): the column wildcard is replaced by one column node per
// metadata column, using metadata fetched from the catalog.
func TestStageTwoWildcardExpansionFigure6(t *testing.T) {
	g := newGenerator(context.Background(), catalog.Demo(), Options{}, CaptureContexts(mustParseStmt(t, "SELECT * FROM CUSTOMERS")))
	fr, err := g.buildFrom(mustParseStmt(t, "SELECT * FROM CUSTOMERS").Body.(*qfront.QuerySpec).From, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	items := g.expandWildcard(fr.scope)
	var names []string
	for _, it := range items {
		names = append(names, it.ElementName)
	}
	want := "CUSTOMERID,CUSTOMERNAME,CITY,SIGNUPDATE"
	if strings.Join(names, ",") != want {
		t.Fatalf("expanded columns = %v, want %s", names, want)
	}
	// Each expanded item resolves to an XPath over the row variable.
	if xquery.String(items[0].Expr) != "fn:data($var1FR1/CUSTOMERID)" {
		t.Fatalf("accessor = %s", xquery.String(items[0].Expr))
	}
}

// TestStageTwoQualifiedExpansion: with two tables in scope, expansion
// qualifies element names the way the paper's multi-table examples do.
func TestStageTwoQualifiedExpansion(t *testing.T) {
	stmt := mustParseStmt(t, "SELECT * FROM CUSTOMERS, PAYMENTS")
	g := newGenerator(context.Background(), catalog.Demo(), Options{}, CaptureContexts(stmt))
	fr, err := g.buildFrom(stmt.Body.(*qfront.QuerySpec).From, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	items := g.expandWildcard(fr.scope)
	if len(items) != 8 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].ElementName != "CUSTOMERS.CUSTOMERID" || items[4].ElementName != "PAYMENTS.PAYMENTID" {
		t.Fatalf("qualification wrong: %s, %s", items[0].ElementName, items[4].ElementName)
	}
	// Labels stay bare for JDBC.
	if items[0].Label != "CUSTOMERID" {
		t.Fatalf("label = %s", items[0].Label)
	}
}

// TestRSNMappingFigure3 exercises the Figure 3 query shape — three tables,
// an inner join, two subqueries and a union — and checks that each SQL
// "view" abstraction (the paper's resultset nodes) produced its XQuery
// realization: subqueries as let-bound RECORDSETs, the join as flattened
// for clauses, the union as a distinct-rows merge.
func TestRSNMappingFigure3(t *testing.T) {
	res := translate(t, `
		SELECT S1.CUSTOMERID FROM
			(SELECT C.CUSTOMERID FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS O
			 ON C.CUSTOMERID = O.CUSTOMERID) AS S1
		UNION
		SELECT S2.CUSTID FROM (SELECT CUSTID FROM PAYMENTS) AS S2`)
	xq := res.XQuery()

	// Query RSNs (subqueries) → let-bound RECORDSET views.
	if got := strings.Count(xq, "let $tempvar"); got < 2 {
		t.Fatalf("expected 2 let-bound subquery views, found %d:\n%s", got, xq)
	}
	// Join RSN → flattened double for + where.
	assertContains(t, xq,
		"for $var2FR1 in ns0:CUSTOMERS()",
		"for $var2FR2 in ns1:PO_CUSTOMERS()",
		"where ($var2FR1/CUSTOMERID = $var2FR2/CUSTOMERID)",
	)
	// Set-operation RSN → distinct-rows over the two operand sequences.
	assertContains(t, xq, "fn-bea:distinct-rows(")
	// Table RSNs → one schema import per distinct function namespace.
	if len(res.Query.Prolog.SchemaImports) != 3 {
		t.Fatalf("imports = %d", len(res.Query.Prolog.SchemaImports))
	}
}

// TestStageThreeClauseMappingFigure7 verifies the clause-level mapping of
// Figure 7: FROM→for, WHERE→where, SELECT→return, ORDER BY→order by.
func TestStageThreeClauseMappingFigure7(t *testing.T) {
	res := translate(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID > 5 ORDER BY CUSTOMERNAME")
	xq := res.XQuery()
	forIdx := strings.Index(xq, "for $")
	whereIdx := strings.Index(xq, "where ")
	orderIdx := strings.Index(xq, "order by ")
	returnIdx := strings.Index(xq, "return")
	if forIdx < 0 || whereIdx < 0 || orderIdx < 0 || returnIdx < 0 {
		t.Fatalf("missing clause in:\n%s", xq)
	}
	if !(forIdx < whereIdx && whereIdx < orderIdx && orderIdx < returnIdx) {
		t.Fatalf("clause order wrong: for=%d where=%d order=%d return=%d", forIdx, whereIdx, orderIdx, returnIdx)
	}
}

func mustParseStmt(t *testing.T, sql string) *qfront.SelectStmt {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}
