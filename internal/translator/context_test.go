package translator

import (
	"testing"

	"repro/internal/qfront"
	"repro/internal/sqlparser"
)

// TestContextsFigure4 reproduces the paper's Figure 4: a doubly nested
// query has three contexts — innermost on CUSTOMERS, an intermediate query
// over that view, and the outermost query — under the CTX0 marker root.
func TestContextsFigure4(t *testing.T) {
	stmt, err := sqlparser.Parse(`
		SELECT * FROM (
			SELECT ID FROM (
				SELECT CUSTOMERID ID FROM CUSTOMERS
			) AS INNERV
		) AS OUTERV`)
	if err != nil {
		t.Fatal(err)
	}
	root := CaptureContexts(stmt)
	if root.ID != 0 || root.Spec != nil {
		t.Fatalf("marker root = %+v", root)
	}
	if got := root.Count(); got != 3 {
		t.Fatalf("contexts = %d, want 3 (Figure 4)", got)
	}
	// The outermost query is CTX1; depth increases inward.
	outer := root.Children[0]
	if outer.ID != 1 || outer.Depth() != 1 {
		t.Fatalf("outer = id %d depth %d", outer.ID, outer.Depth())
	}
	mid := outer.Children[0]
	inner := mid.Children[0]
	if mid.ID != 2 || inner.ID != 3 {
		t.Fatalf("ids = %d, %d", mid.ID, inner.ID)
	}
	if inner.Depth() != 3 {
		t.Fatalf("inner depth = %d", inner.Depth())
	}
	if outer.SubqueryCount != 1 || mid.SubqueryCount != 1 || inner.SubqueryCount != 0 {
		t.Fatalf("subquery counts = %d, %d, %d", outer.SubqueryCount, mid.SubqueryCount, inner.SubqueryCount)
	}
}

func TestContextsCaptureAggregates(t *testing.T) {
	stmt, err := sqlparser.Parse("SELECT COUNT(*) FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	root := CaptureContexts(stmt)
	if !root.Children[0].HasAggregates {
		t.Fatal("aggregate presence must be captured in stage one")
	}
	stmt, _ = sqlparser.Parse("SELECT CITY FROM CUSTOMERS GROUP BY CITY HAVING MAX(CUSTOMERID) > 1")
	root = CaptureContexts(stmt)
	if !root.Children[0].HasAggregates {
		t.Fatal("HAVING aggregates must be captured")
	}
	stmt, _ = sqlparser.Parse("SELECT CITY FROM CUSTOMERS")
	root = CaptureContexts(stmt)
	if root.Children[0].HasAggregates {
		t.Fatal("no aggregates here")
	}
}

func TestContextsPredicateSubqueries(t *testing.T) {
	stmt, err := sqlparser.Parse(`
		SELECT CUSTOMERID FROM CUSTOMERS
		WHERE EXISTS (SELECT 1 FROM PAYMENTS)
		  AND CUSTOMERID IN (SELECT CUSTID FROM PAYMENTS)
		  AND CUSTOMERID > ANY (SELECT CUSTID FROM PAYMENTS)
		  AND CITY = (SELECT CITY FROM CUSTOMERS C2)`)
	if err != nil {
		t.Fatal(err)
	}
	root := CaptureContexts(stmt)
	outer := root.Children[0]
	if outer.SubqueryCount != 4 {
		t.Fatalf("subqueries = %d, want 4", outer.SubqueryCount)
	}
	if got := root.Count(); got != 5 {
		t.Fatalf("contexts = %d, want 5", got)
	}
}

func TestContextsSetOperations(t *testing.T) {
	stmt, err := sqlparser.Parse("SELECT A FROM T UNION SELECT B FROM U INTERSECT SELECT C FROM V")
	if err != nil {
		t.Fatal(err)
	}
	root := CaptureContexts(stmt)
	// Three SELECT blocks, all direct children of the marker (set ops do
	// not nest scopes).
	if len(root.Children) != 3 {
		t.Fatalf("children = %d", len(root.Children))
	}
	if got := root.Count(); got != 3 {
		t.Fatalf("contexts = %d", got)
	}
}

func TestContextsJoinConditionSubquery(t *testing.T) {
	stmt, err := sqlparser.Parse(`
		SELECT 1 FROM CUSTOMERS C JOIN PAYMENTS P
		ON C.CUSTOMERID = P.CUSTID AND P.PAYMENT > (SELECT 0 FROM PAYMENTS X)`)
	if err != nil {
		t.Fatal(err)
	}
	root := CaptureContexts(stmt)
	if root.Count() != 2 {
		t.Fatalf("contexts = %d, want 2", root.Count())
	}
}

func TestContextFind(t *testing.T) {
	stmt, _ := sqlparser.Parse("SELECT * FROM (SELECT A FROM T) AS D")
	root := CaptureContexts(stmt)
	outerSpec := stmt.Body.(*qfront.QuerySpec)
	if ctx := root.Find(outerSpec); ctx == nil || ctx.ID != 1 {
		t.Fatalf("Find(outer) = %+v", ctx)
	}
	innerSpec := outerSpec.From[0].(*qfront.DerivedTable).Query.Body.(*qfront.QuerySpec)
	if ctx := root.Find(innerSpec); ctx == nil || ctx.ID != 2 {
		t.Fatalf("Find(inner) = %+v", ctx)
	}
	if root.Find(&qfront.QuerySpec{}) != nil {
		t.Fatal("Find of unknown spec should be nil")
	}
}
