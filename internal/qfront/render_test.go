package qfront_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/qfront"
	"repro/internal/sqlparser"
)

// The SQL renderer is load-bearing: the translator matches ORDER BY items
// and GROUP BY keys by their rendered text, so two different expressions
// must never render alike, and every rendering must parse back to the tree
// it came from.

// TestRenderParenthesizesByPrecedence pins the renderings that used to lose
// their parentheses.
func TestRenderParenthesizesByPrecedence(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"SELECT (1+2)*3", "(1 + 2) * 3"},
		{"SELECT 1+2*3", "1 + 2 * 3"},
		{"SELECT A - (B - C) FROM T", "A - (B - C)"},
		{"SELECT A - B - C FROM T", "A - B - C"},
		{"SELECT A / (B * C) FROM T", "A / (B * C)"},
		{"SELECT (A / B) * C FROM T", "A / B * C"},
		{"SELECT A || (B || C) FROM T", "A || (B || C)"},
		{"SELECT -(A + B) FROM T", "-(A + B)"},
		{"SELECT - -A FROM T", "-(-A)"},
		{"SELECT (K-2)*(K-2) FROM T", "(K - 2) * (K - 2)"},
		{"SELECT K-2*K-2 FROM T", "K - 2 * K - 2"},
		{"SELECT(0>0)>0", "(0 > 0) > 0"},
		{"SELECT 1 FROM T WHERE (A = B) = (C = D)", "(A = B) = (C = D)"},
		{"SELECT 1 FROM T WHERE (A = B) IS NULL", "(A = B) IS NULL"},
		{"SELECT 1 FROM T WHERE (A < B) IN (SELECT X FROM U)", "(A < B) IN (SELECT"},
		{"SELECT 1 FROM T WHERE (A IS NULL) BETWEEN (B LIKE 'x') AND 1", "(A IS NULL) BETWEEN (B LIKE 'x') AND 1"},
		{"SELECT 1 FROM T WHERE (NOT (A = 1)) = B", "(NOT (A = 1)) = B"},
	} {
		stmt, err := sqlparser.Parse(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if got := stmt.SQL(); !strings.Contains(got, c.want) {
			t.Errorf("%q renders %q, want it to contain %q", c.in, got, c.want)
		}
		checkFixedPoint(t, c.in)
	}
}

// TestRenderFixedPointOnCorpora: over the parser's and translator's seed
// and fuzz corpora, parse → render → parse yields the same tree, and
// rendering it again the same text.
func TestRenderFixedPointOnCorpora(t *testing.T) {
	corpus := []string{
		"SELECT * FROM CUSTOMERS",
		"SELECT CUSTOMERID ID, CUSTOMERNAME NAME FROM CUSTOMERS",
		"SELECT C.*, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID",
		"SELECT CUSTOMERS.CUSTOMERNAME FROM CUSTOMERS INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
		"SELECT A.CUSTOMERNAME, B.PAYMENT FROM CUSTOMERS A LEFT OUTER JOIN PAYMENTS B ON A.CUSTOMERID = B.CUSTID",
		"SELECT DISTINCT CITY FROM CUSTOMERS ORDER BY CITY DESC",
		"SELECT CUSTOMERID FROM CUSTOMERS UNION ALL SELECT CUSTID FROM PAYMENTS",
		"SELECT CUSTOMERID FROM CUSTOMERS EXCEPT SELECT CUSTID FROM PAYMENTS",
		"SELECT CITY, COUNT(*), MAX(CUSTOMERID) FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) > 1",
		"SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERNAME LIKE 'A%' AND CUSTOMERID BETWEEN 5 AND 10",
		"SELECT CUSTOMERID FROM CUSTOMERS WHERE CITY IS NOT NULL",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ? AND CITY = ?",
		"SELECT UPPER(CUSTOMERNAME), SUBSTRING(CUSTOMERNAME FROM 1 FOR 3) FROM CUSTOMERS",
		"SELECT CAST(CUSTOMERID AS VARCHAR(10)) FROM CUSTOMERS ORDER BY 1",
		"SELECT INFO.ID FROM (SELECT CUSTOMERID ID FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTID FROM PAYMENTS WHERE PAYMENT > 100)",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID NOT IN (SELECT CUSTID FROM PAYMENTS)",
		"SELECT EXTRACT(YEAR FROM PAYDATE), SUM(PAYMENT) FROM PAYMENTS GROUP BY EXTRACT(YEAR FROM PAYDATE)",
		"SELECT * FROM CUSTOMERS WHERE (CUSTOMERID, CITY) = (1, 'Oslo')",
		"select count(*) from payments where paydate >= DATE '2005-01-01'",
		"SELECT -1.5e10, 'it''s', \"quoted id\" FROM CUSTOMERS",
		"SELECT UPPER(CUSTOMERNAME), LENGTH(CITY) FROM CUSTOMERS WHERE CITY IS NOT NULL",
		"SELECT COUNT(DISTINCT CITY), MIN(SIGNUPDATE) FROM CUSTOMERS",
		"SELECT * FROM PO_CUSTOMERS WHERE STATUS = 'OPEN' AND TOTAL BETWEEN 10 AND 500",
		"SELECT C.CUSTOMERID FROM CUSTOMERS C WHERE NOT EXISTS (SELECT 1 FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID AND O.TOTAL > ?)",
		"SELECT CUSTOMERID * 10 + 1 AS X, -(CUSTOMERID - 3) / 2 FROM CUSTOMERS WHERE NOT (CUSTOMERID = 3 OR CITY <> 'x')",
		"SELECT CASE WHEN A > 0 THEN A - (B - 1) ELSE -A END FROM T WHERE A > ANY (SELECT B FROM U) AND A <= ALL (SELECT C FROM V)",
	}
	for _, dir := range []string{"../sqlparser/testdata/fuzz/FuzzParseSelect", "../translator/testdata/fuzz/FuzzTranslate"} {
		corpus = append(corpus, fuzzCorpus(t, dir)...)
	}
	parsed := 0
	for _, sql := range corpus {
		if _, err := sqlparser.Parse(sql); err != nil {
			continue // a fuzz input the parser rejects: nothing to render
		}
		checkFixedPoint(t, sql)
		parsed++
	}
	if parsed < 28 {
		t.Fatalf("only %d corpus statements parsed", parsed)
	}
}

// checkFixedPoint parses sql, renders it, parses the rendering and requires
// the same tree (positions aside) and the same text on a second rendering.
func checkFixedPoint(t *testing.T, sql string) {
	t.Helper()
	first, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	rendered := first.SQL()
	second, err := sqlparser.Parse(rendered)
	if err != nil {
		t.Fatalf("rendering of %q does not parse: %v\n%s", sql, err, rendered)
	}
	if !sameTree(reflect.ValueOf(first), reflect.ValueOf(second)) {
		t.Fatalf("rendering of %q parses to a different tree:\n%s\n%s", sql, rendered, second.SQL())
	}
	if again := second.SQL(); again != rendered {
		t.Fatalf("rendering of %q is not a fixed point:\n%s\n%s", sql, rendered, again)
	}
}

// sameTree compares two ASTs structurally, ignoring source positions.
func sameTree(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Elem().Type() != b.Elem().Type() {
			return false
		}
		return sameTree(a.Elem(), b.Elem())
	case reflect.Struct:
		if a.Type() == reflect.TypeOf(qfront.Pos{}) {
			return true
		}
		for i := 0; i < a.NumField(); i++ {
			if !sameTree(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameTree(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// fuzzCorpus reads the string inputs of a native fuzz corpus directory.
func fuzzCorpus(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				if s, err := strconv.Unquote(strings.TrimSuffix(arg, ")")); err == nil {
					out = append(out, s)
				}
			}
		}
	}
	return out
}
