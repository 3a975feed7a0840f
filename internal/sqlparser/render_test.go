package sqlparser

import (
	"strings"
	"testing"

	"repro/internal/qfront"
)

// TestSQLRenderKitchenSink drives SQL() through every node type at once.
// Canonical rendering is load-bearing: the translator matches GROUP BY
// keys and ORDER BY expressions by canonical text.
func TestSQLRenderKitchenSink(t *testing.T) {
	src := `SELECT DISTINCT T.*, A.X AS AX, -B.Y, COUNT(*), SUM(DISTINCT Z),
		CASE W WHEN 1 THEN 'a' ELSE 'b' END,
		CASE WHEN U > 0 THEN 1 END,
		CAST(V AS DECIMAL(8, 2)), CAST(V2 AS CHAR(3)),
		(SELECT MAX(M) FROM INNER1), ?, NULL, TRUE, FALSE,
		DATE '2006-01-02', TIME '10:00:00', TIMESTAMP '2006-01-02 10:00:00',
		N || 'x', UPPER(S)
	FROM T, (SELECT P FROM Q) AS D (P2),
		(A2 LEFT OUTER JOIN B2 ON A2.K = B2.K) AS J,
		C2 CROSS JOIN D2, E2 NATURAL JOIN F2, G2 JOIN H2 USING (UK)
	WHERE T.C1 BETWEEN 1 AND 2
		AND T.C2 NOT BETWEEN 3 AND 4
		AND T.C3 IN (1, 2)
		AND T.C4 NOT IN (SELECT I FROM INNER2)
		AND T.C5 LIKE 'a%' ESCAPE '!'
		AND T.C6 IS NULL
		AND T.C7 IS NOT NULL
		AND EXISTS (SELECT 1 FROM INNER3)
		AND T.C8 > ANY (SELECT N2 FROM INNER4)
		AND T.C9 <= ALL (SELECT N3 FROM INNER5)
		AND (T.CA, T.CB) = (1, 'x')
		AND NOT (T.CC = 1 OR T.CD / 2 * 3 - 4 + 5 <> 6)
	GROUP BY T.G1, T.G2
	HAVING COUNT(*) > 1
	ORDER BY 1 DESC, AX ASC
	FETCH FIRST 7 ROWS ONLY`
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rendered := stmt.SQL()
	// The rendering must itself parse and be a fixed point.
	stmt2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse: %v\nrendered: %s", err, rendered)
	}
	if stmt2.SQL() != rendered {
		t.Fatalf("SQL() not a fixed point:\n1: %s\n2: %s", rendered, stmt2.SQL())
	}
	for _, want := range []string{
		"T.*", "AS AX", "COUNT(*)", "SUM(DISTINCT Z)",
		"CASE W WHEN 1 THEN 'a' ELSE 'b' END",
		"CAST(V AS DECIMAL(8, 2))", "CAST(V2 AS CHAR(3))",
		"DATE '2006-01-02'", "TIMESTAMP '2006-01-02 10:00:00'",
		"NOT BETWEEN 3 AND 4", "NOT IN (SELECT",
		"LIKE 'a%' ESCAPE '!'", "IS NULL", "IS NOT NULL",
		"EXISTS (SELECT", "> ANY (SELECT", "<= ALL (SELECT",
		"(T.CA, T.CB) = (1, 'x')",
		"LEFT OUTER JOIN", "CROSS JOIN", "NATURAL", "USING (UK)",
		"GROUP BY T.G1, T.G2", "HAVING COUNT(*) > 1",
		"ORDER BY 1 DESC, AX", "FETCH FIRST 7 ROWS ONLY",
		"(P2)", "AS J",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered SQL missing %q:\n%s", want, rendered)
		}
	}
}

// TestSetOpRendering covers the set-operation SQL() paths.
func TestSetOpRendering(t *testing.T) {
	stmt, err := Parse("SELECT A FROM T UNION ALL SELECT A FROM U INTERSECT SELECT A FROM V EXCEPT SELECT A FROM W")
	if err != nil {
		t.Fatal(err)
	}
	rendered := stmt.SQL()
	for _, want := range []string{"UNION ALL", "INTERSECT", "EXCEPT"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("missing %q in %s", want, rendered)
		}
	}
	if _, err := Parse(rendered); err != nil {
		t.Fatalf("re-parse: %v", err)
	}
}

// TestQuotedSchemaRendering covers quoteIdentIfNeeded.
func TestQuotedSchemaRendering(t *testing.T) {
	stmt, err := Parse(`SELECT C FROM "My Schema/X".T`)
	if err != nil {
		t.Fatal(err)
	}
	rendered := stmt.SQL()
	if !strings.Contains(rendered, `"My Schema/X".T`) {
		t.Fatalf("rendered = %s", rendered)
	}
	if _, err := Parse(rendered); err != nil {
		t.Fatalf("re-parse: %v", err)
	}
}

// TestPositionAccessors confirms every node reports a position (used by
// error messages).
func TestPositionAccessors(t *testing.T) {
	stmt, err := Parse(`SELECT A, (B, C) FROM T JOIN (SELECT D FROM U) AS V ON T.K = V.D WHERE ? = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Position().Line != 1 {
		t.Fatal("stmt position")
	}
	seen := 0
	spec := stmt.Body.(*qfront.QuerySpec)
	if spec.Position().Line != 1 {
		t.Fatal("spec position")
	}
	for _, item := range spec.Items {
		if item.Expr != nil {
			qfront.WalkExpr(item.Expr, func(e qfront.Expr) bool {
				if e.Position().Line < 1 {
					t.Errorf("%T has no position", e)
				}
				seen++
				return true
			})
		}
		if item.Position().Line < 1 {
			t.Error("item position")
		}
	}
	qfront.WalkTableRefs(spec.From, func(r qfront.TableRef) {
		if r.Position().Line < 1 {
			t.Errorf("%T has no position", r)
		}
	})
	qfront.WalkExpr(spec.Where, func(e qfront.Expr) bool {
		if e.Position().Line < 1 {
			t.Errorf("%T has no position", e)
		}
		return true
	})
	if seen == 0 {
		t.Fatal("walk visited nothing")
	}
}

// TestOperatorClassPredicates pins the operator classification helpers the
// translator dispatches on.
func TestOperatorClassPredicates(t *testing.T) {
	if !qfront.BinEq.Comparison() || !qfront.BinGe.Comparison() || qfront.BinAdd.Comparison() {
		t.Fatal("Comparison()")
	}
	if !qfront.BinAnd.Logical() || !qfront.BinOr.Logical() || qfront.BinEq.Logical() {
		t.Fatal("Logical()")
	}
	if !qfront.BinAdd.Arithmetic() || !qfront.BinDiv.Arithmetic() || qfront.BinConcat.Arithmetic() {
		t.Fatal("Arithmetic()")
	}
	for op := qfront.BinAdd; op <= qfront.BinOr; op++ {
		if strings.Contains(op.String(), "BinaryOp(") {
			t.Errorf("missing spelling for op %d", op)
		}
	}
	for _, u := range []qfront.UnaryOp{qfront.UnaryMinus, qfront.UnaryPlus, qfront.UnaryNot} {
		if strings.Contains(u.String(), "UnaryOp(") {
			t.Errorf("missing spelling for unary %v", u)
		}
	}
	for _, j := range []qfront.JoinType{qfront.JoinInner, qfront.JoinLeftOuter, qfront.JoinRightOuter, qfront.JoinFullOuter, qfront.JoinCross} {
		if strings.Contains(j.String(), "JoinType(") {
			t.Errorf("missing spelling for join %v", j)
		}
	}
	for _, s := range []qfront.SetOpType{qfront.SetUnion, qfront.SetExcept, qfront.SetIntersect} {
		if strings.Contains(s.String(), "SetOpType(") {
			t.Errorf("missing spelling for set op %v", s)
		}
	}
	for _, k := range []TokenType{TokEOF, TokIdent, TokQuotedIdent, TokKeyword, TokString, TokInteger, TokDecimal, TokFloat, TokParam, TokOp} {
		if strings.Contains(k.String(), "TokenType(") {
			t.Errorf("missing name for token type %v", k)
		}
	}
}
