package translator_test

// P4 — the SQL-92 SELECT conformance matrix. The paper claims the
// translator "supports almost all of the SELECT functionality of SQL-92";
// this suite enumerates that functionality feature by feature. Every entry
// must translate AND execute against the fixture engine without error
// (row-level semantics are covered by exec_test.go; this matrix is about
// coverage breadth).

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/translator"
)

var conformanceMatrix = []struct {
	feature string
	sql     string
}{
	// --- projection ---
	{"select star", "SELECT * FROM CUSTOMERS"},
	{"qualified star", "SELECT CUSTOMERS.* FROM CUSTOMERS"},
	{"alias star mix", "SELECT C.*, C.CUSTOMERID FROM CUSTOMERS C"},
	{"column list", "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS"},
	{"column aliases AS", "SELECT CUSTOMERID AS ID FROM CUSTOMERS"},
	{"column aliases bare", "SELECT CUSTOMERID ID FROM CUSTOMERS"},
	{"expressions", "SELECT CUSTOMERID + 1, CUSTOMERID * 2 - 3 FROM CUSTOMERS"},
	{"string concat", "SELECT CUSTOMERNAME || ' (' || CITY || ')' FROM CUSTOMERS"},
	{"distinct", "SELECT DISTINCT CITY FROM CUSTOMERS"},
	{"all (noise word)", "SELECT ALL CITY FROM CUSTOMERS"},
	{"select without from", "SELECT 1, 'x'"},

	// --- literals ---
	{"integer literal", "SELECT 42 FROM CUSTOMERS"},
	{"decimal literal", "SELECT 5.6 FROM CUSTOMERS"},
	{"approximate literal", "SELECT 1.5E2 FROM CUSTOMERS"},
	{"string literal escape", "SELECT 'it''s' FROM CUSTOMERS"},
	{"null literal", "SELECT NULL FROM CUSTOMERS"},
	{"date literal", "SELECT DATE '2006-07-05' FROM CUSTOMERS"},
	{"time literal", "SELECT TIME '12:34:56' FROM CUSTOMERS"},
	{"timestamp literal", "SELECT TIMESTAMP '2006-07-05 12:34:56' FROM CUSTOMERS"},

	// --- FROM ---
	{"table alias AS", "SELECT C.CUSTOMERID FROM CUSTOMERS AS C"},
	{"table alias bare", "SELECT C.CUSTOMERID FROM CUSTOMERS C"},
	{"schema-qualified table", `SELECT CUSTOMERID FROM "TestDataServices/CUSTOMERS".CUSTOMERS`},
	{"comma join", "SELECT C.CUSTOMERID FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID"},
	{"three-way comma join", "SELECT 1 FROM CUSTOMERS C, PAYMENTS P, PO_CUSTOMERS O WHERE C.CUSTOMERID = P.CUSTID AND C.CUSTOMERID = O.CUSTOMERID"},
	{"derived table", "SELECT D.X FROM (SELECT CUSTOMERID X FROM CUSTOMERS) AS D"},
	{"derived column list", "SELECT D.A FROM (SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS) AS D (A, B)"},

	// --- joins ---
	{"inner join", "SELECT 1 FROM CUSTOMERS JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"},
	{"inner join keyword", "SELECT 1 FROM CUSTOMERS INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"},
	{"left outer join", "SELECT 1 FROM CUSTOMERS LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"},
	{"left join shorthand", "SELECT 1 FROM CUSTOMERS LEFT JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"},
	{"right outer join", "SELECT 1 FROM CUSTOMERS RIGHT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"},
	{"full outer join", "SELECT 1 FROM CUSTOMERS FULL OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"},
	{"cross join", "SELECT 1 FROM CUSTOMERS CROSS JOIN PAYMENTS"},
	{"join using", "SELECT 1 FROM CUSTOMERS JOIN PO_CUSTOMERS USING (CUSTOMERID)"},
	{"natural join", "SELECT 1 FROM CUSTOMERS NATURAL JOIN PO_CUSTOMERS"},
	{"join chain", "SELECT 1 FROM CUSTOMERS C JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID"},
	{"parenthesized join", "SELECT 1 FROM (CUSTOMERS JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID)"},
	{"aliased join", "SELECT P.PAYMENTID FROM (CUSTOMERS JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID) AS P"},
	{"outer join of derived", "SELECT 1 FROM CUSTOMERS LEFT OUTER JOIN (SELECT CUSTID FROM PAYMENTS) AS D ON CUSTOMERS.CUSTOMERID = D.CUSTID"},
	{"join of joins", "SELECT 1 FROM (CUSTOMERS JOIN PO_CUSTOMERS ON CUSTOMERS.CUSTOMERID = PO_CUSTOMERS.CUSTOMERID) LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"},

	// --- WHERE predicates ---
	{"comparison operators", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID = 1 OR CUSTOMERID <> 2 OR CUSTOMERID < 3 OR CUSTOMERID <= 4 OR CUSTOMERID > 5 OR CUSTOMERID >= 6"},
	{"boolean connectives", "SELECT 1 FROM CUSTOMERS WHERE (CUSTOMERID > 1 AND CITY = 'x') OR NOT (CUSTOMERNAME = 'y')"},
	{"between", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID BETWEEN 1 AND 5"},
	{"not between", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID NOT BETWEEN 1 AND 5"},
	{"in list", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID IN (1, 2, 3)"},
	{"not in list", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID NOT IN (1, 2, 3)"},
	{"in subquery", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTID FROM PAYMENTS)"},
	{"not in subquery", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID NOT IN (SELECT CUSTID FROM PAYMENTS)"},
	{"like", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERNAME LIKE 'J%'"},
	{"like underscore", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERNAME LIKE '_oe'"},
	{"like escape", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERNAME LIKE '100!%%' ESCAPE '!'"},
	{"not like", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERNAME NOT LIKE 'J%'"},
	{"is null", "SELECT 1 FROM CUSTOMERS WHERE CITY IS NULL"},
	{"is not null", "SELECT 1 FROM CUSTOMERS WHERE CITY IS NOT NULL"},
	{"exists", "SELECT 1 FROM CUSTOMERS C WHERE EXISTS (SELECT 1 FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID)"},
	{"not exists", "SELECT 1 FROM CUSTOMERS C WHERE NOT EXISTS (SELECT 1 FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID)"},
	{"quantified any", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID = ANY (SELECT CUSTID FROM PAYMENTS)"},
	{"quantified some", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID = SOME (SELECT CUSTID FROM PAYMENTS)"},
	{"quantified all", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID >= ALL (SELECT CUSTID FROM PAYMENTS WHERE CUSTID < 3)"},
	{"scalar subquery comparison", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID = (SELECT MIN(CUSTID) FROM PAYMENTS)"},
	{"correlated scalar subquery", "SELECT (SELECT COUNT(*) FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID) FROM CUSTOMERS C"},
	{"parameters", "SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID = 1 AND CUSTOMERID < 100"},

	// --- aggregates and grouping ---
	{"count star", "SELECT COUNT(*) FROM CUSTOMERS"},
	{"count column", "SELECT COUNT(CITY) FROM CUSTOMERS"},
	{"count distinct", "SELECT COUNT(DISTINCT CITY) FROM CUSTOMERS"},
	{"sum avg min max", "SELECT SUM(PAYMENT), AVG(PAYMENT), MIN(PAYMENT), MAX(PAYMENT) FROM PAYMENTS"},
	{"sum distinct", "SELECT SUM(DISTINCT CUSTID) FROM PAYMENTS"},
	{"aggregate of expression", "SELECT SUM(PAYMENT * 2) FROM PAYMENTS"},
	{"group by", "SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY"},
	{"group by multiple", "SELECT CUSTID, PAYDATE, COUNT(*) FROM PAYMENTS GROUP BY CUSTID, PAYDATE"},
	{"group by expression key reuse", "SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) >= 1"},
	{"having", "SELECT CUSTID FROM PAYMENTS GROUP BY CUSTID HAVING COUNT(*) > 1"},
	{"having aggregate only", "SELECT COUNT(*) FROM PAYMENTS HAVING COUNT(*) > 0"},
	{"group by qualified", "SELECT CUSTOMERS.CITY, COUNT(*) FROM CUSTOMERS GROUP BY CUSTOMERS.CITY"},
	{"scalar function of group key", "SELECT UPPER(CITY), COUNT(*) FROM CUSTOMERS GROUP BY CITY"},

	// --- set operations ---
	{"union", "SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS"},
	{"union all", "SELECT CUSTOMERID FROM CUSTOMERS UNION ALL SELECT CUSTID FROM PAYMENTS"},
	{"except", "SELECT CUSTOMERID FROM CUSTOMERS EXCEPT SELECT CUSTID FROM PAYMENTS"},
	{"except all", "SELECT CUSTOMERID FROM CUSTOMERS EXCEPT ALL SELECT CUSTID FROM PAYMENTS"},
	{"intersect", "SELECT CUSTOMERID FROM CUSTOMERS INTERSECT SELECT CUSTID FROM PAYMENTS"},
	{"intersect all", "SELECT CUSTOMERID FROM CUSTOMERS INTERSECT ALL SELECT CUSTID FROM PAYMENTS"},
	{"set op chain", "SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS EXCEPT SELECT CUSTOMERID FROM PO_CUSTOMERS"},
	{"set op with order by", "SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS ORDER BY CUSTOMERID DESC"},
	{"union of grouped", "SELECT CITY FROM CUSTOMERS GROUP BY CITY UNION SELECT CUSTOMERNAME FROM CUSTOMERS"},

	// --- ORDER BY ---
	{"order by column", "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERNAME"},
	{"order by desc", "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERNAME DESC"},
	{"order by asc explicit", "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERNAME ASC"},
	{"order by ordinal", "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS ORDER BY 2"},
	{"order by alias", "SELECT CUSTOMERID AS K FROM CUSTOMERS ORDER BY K"},
	{"order by multiple", "SELECT CUSTOMERID, CITY FROM CUSTOMERS ORDER BY CITY DESC, CUSTOMERID"},
	{"order by non-projected", "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID"},
	{"order by expression", "SELECT CUSTOMERID FROM CUSTOMERS ORDER BY CUSTOMERID * -1"},

	// --- CASE / CAST / functions ---
	{"case searched", "SELECT CASE WHEN CUSTOMERID > 2 THEN 'hi' ELSE 'lo' END FROM CUSTOMERS"},
	{"case simple", "SELECT CASE CITY WHEN 'Springfield' THEN 1 ELSE 0 END FROM CUSTOMERS"},
	{"case no else", "SELECT CASE WHEN CUSTOMERID = 1 THEN 'one' END FROM CUSTOMERS"},
	{"nested case", "SELECT CASE WHEN CUSTOMERID > 1 THEN CASE WHEN CUSTOMERID > 3 THEN 'a' ELSE 'b' END ELSE 'c' END FROM CUSTOMERS"},
	{"cast to integer", "SELECT CAST(PAYMENT AS INTEGER) FROM PAYMENTS"},
	{"cast to varchar", "SELECT CAST(CUSTOMERID AS VARCHAR(10)) FROM CUSTOMERS"},
	{"cast to decimal", "SELECT CAST(CUSTOMERID AS DECIMAL(10, 2)) FROM CUSTOMERS"},
	{"cast to double", "SELECT CAST(CUSTOMERID AS DOUBLE PRECISION) FROM CUSTOMERS"},
	{"upper lower", "SELECT UPPER(CUSTOMERNAME), LOWER(CITY) FROM CUSTOMERS"},
	{"substring from for", "SELECT SUBSTRING(CUSTOMERNAME FROM 1 FOR 2) FROM CUSTOMERS"},
	{"substring commas", "SELECT SUBSTRING(CUSTOMERNAME, 2) FROM CUSTOMERS"},
	{"length", "SELECT LENGTH(CUSTOMERNAME), CHAR_LENGTH(CUSTOMERNAME) FROM CUSTOMERS"},
	{"position", "SELECT POSITION('o' IN CUSTOMERNAME) FROM CUSTOMERS"},
	{"trim forms", "SELECT TRIM(CUSTOMERNAME), TRIM(LEADING FROM CUSTOMERNAME), TRIM(BOTH 'x' FROM CUSTOMERNAME) FROM CUSTOMERS"},
	{"numeric functions", "SELECT ABS(CUSTOMERID), MOD(CUSTOMERID, 3), ROUND(PAYMENT), FLOOR(PAYMENT), CEILING(PAYMENT) FROM CUSTOMERS, PAYMENTS WHERE CUSTOMERID = CUSTID"},
	{"coalesce", "SELECT COALESCE(CITY, 'none') FROM CUSTOMERS"},
	{"coalesce chain", "SELECT COALESCE(CITY, CUSTOMERNAME, 'none') FROM CUSTOMERS"},
	{"nullif", "SELECT NULLIF(CITY, 'Springfield') FROM CUSTOMERS"},
	{"extract", "SELECT EXTRACT(YEAR FROM SIGNUPDATE), EXTRACT(MONTH FROM SIGNUPDATE), EXTRACT(DAY FROM SIGNUPDATE) FROM CUSTOMERS"},
	{"current datetime", "SELECT CURRENT_DATE, CURRENT_TIME, CURRENT_TIMESTAMP FROM CUSTOMERS"},
	{"concat function", "SELECT CONCAT(CUSTOMERNAME, CITY) FROM CUSTOMERS"},
	{"unary minus", "SELECT -CUSTOMERID, -(CUSTOMERID + 1) FROM CUSTOMERS"},

	// --- nesting and composition ---
	{"derived of derived", "SELECT A.X FROM (SELECT B.Y X FROM (SELECT CUSTOMERID Y FROM CUSTOMERS) AS B) AS A"},
	{"grouped derived table", "SELECT D.N FROM (SELECT CUSTID, COUNT(*) N FROM PAYMENTS GROUP BY CUSTID) AS D WHERE D.N > 1"},
	{"subquery in having", "SELECT CUSTID FROM PAYMENTS GROUP BY CUSTID HAVING COUNT(*) > (SELECT 1 FROM CUSTOMERS WHERE CUSTOMERID = 1)"},
	{"join of derived tables", "SELECT 1 FROM (SELECT CUSTOMERID A FROM CUSTOMERS) AS X JOIN (SELECT CUSTID B FROM PAYMENTS) AS Y ON X.A = Y.B"},
	{"union inside derived", "SELECT D.CUSTOMERID FROM (SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS) AS D"},
	// --- extensions beyond strict SQL-92 (documented in README) ---
	{"fetch first", "SELECT CUSTOMERID FROM CUSTOMERS ORDER BY CUSTOMERID FETCH FIRST 2 ROWS ONLY"},
	{"fetch next row", "SELECT CUSTOMERID FROM CUSTOMERS FETCH NEXT ROW ONLY"},
	{"fetch over union", "SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS ORDER BY CUSTOMERID FETCH FIRST 3 ROWS ONLY"},
	{"left right functions", "SELECT LEFT(CUSTOMERNAME, 2), RIGHT(CUSTOMERNAME, 2) FROM CUSTOMERS"},

	// --- row value constructors (SQL-92 §8.2) ---
	{"row equality", "SELECT 1 FROM CUSTOMERS WHERE (CUSTOMERID, CITY) = (1, 'Springfield')"},
	{"row inequality", "SELECT 1 FROM CUSTOMERS WHERE (CUSTOMERID, CITY) <> (1, 'Springfield')"},
	{"row ordering", "SELECT 1 FROM CUSTOMERS WHERE (CITY, CUSTOMERID) < ('Z', 99)"},
	{"row in list", "SELECT 1 FROM CUSTOMERS WHERE (CUSTOMERID, CITY) IN ((1, 'Springfield'), (2, 'Riverton'))"},
	{"row in subquery", "SELECT 1 FROM CUSTOMERS WHERE (CUSTOMERID, 'OPEN') IN (SELECT CUSTOMERID, STATUS FROM PO_CUSTOMERS)"},

	{"everything at once", `SELECT C.CITY, COUNT(*) AS CNT, SUM(P.PAYMENT) AS TOTAL
		FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID
		WHERE C.CUSTOMERID BETWEEN 1 AND 100 AND C.CUSTOMERNAME NOT LIKE 'Z%'
		GROUP BY C.CITY
		HAVING COUNT(*) >= 1
		ORDER BY CNT DESC, C.CITY`},
}

func TestSQL92ConformanceMatrix(t *testing.T) {
	engine := fixtureEngine()
	for _, c := range conformanceMatrix {
		c := c
		t.Run(c.feature, func(t *testing.T) {
			tr := translator.New(catalog.Demo())
			res, err := tr.Translate(c.sql)
			if err != nil {
				t.Fatalf("translate: %v", err)
			}
			// Execute; parameters receive integer 1.
			ext := map[string]Sequence{}
			for i := 0; i < res.ParamCount; i++ {
				ext[fmt.Sprintf("p%d", i+1)] = intSeq(1)
			}
			if _, err := evalQuery(engine, res.Query, ext); err != nil {
				t.Fatalf("execute: %v\nxquery:\n%s", err, res.XQuery())
			}
		})
	}
}

// TestConformanceBothModes spot-checks that every feature class also
// survives the §4 text wrapper.
func TestConformanceBothModes(t *testing.T) {
	engine := fixtureEngine()
	for _, c := range conformanceMatrix {
		tr := translator.New(catalog.Demo())
		tr.Options.Mode = translator.ModeText
		res, err := tr.Translate(c.sql)
		if err != nil {
			t.Fatalf("%s: translate (text mode): %v", c.feature, err)
		}
		ext := map[string]Sequence{}
		for i := 0; i < res.ParamCount; i++ {
			ext[fmt.Sprintf("p%d", i+1)] = intSeq(1)
		}
		if _, err := evalQuery(engine, res.Query, ext); err != nil {
			t.Fatalf("%s: execute (text mode): %v", c.feature, err)
		}
	}
}
