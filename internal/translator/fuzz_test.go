package translator

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/xquery"
)

// FuzzTranslate runs arbitrary SQL through the full three-stage pipeline
// against the demo catalog. The contract mirrors the driver's: bad input
// produces an error, never a panic, and every successful translation must
// serialize to XQuery that our own XQuery parser accepts and name each
// result column's element uniquely, so $row/NAME selects one column.
func FuzzTranslate(f *testing.F) {
	seeds := []string{
		"SELECT * FROM CUSTOMERS",
		"SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID",
		"SELECT A.CUSTOMERNAME, B.PAYMENT FROM CUSTOMERS A LEFT OUTER JOIN PAYMENTS B ON A.CUSTOMERID = B.CUSTID",
		"SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) > 1",
		"SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS",
		"SELECT DISTINCT CITY FROM CUSTOMERS ORDER BY CITY",
		"SELECT INFO.ID FROM (SELECT CUSTOMERID ID FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTID FROM PAYMENTS)",
		"SELECT UPPER(CUSTOMERNAME), LENGTH(CITY) FROM CUSTOMERS WHERE CITY IS NOT NULL",
		"SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?",
		"SELECT CAST(CUSTOMERID AS VARCHAR(10)) FROM CUSTOMERS ORDER BY 1",
		"SELECT COUNT(DISTINCT CITY), MIN(SIGNUPDATE) FROM CUSTOMERS",
		"SELECT EXTRACT(YEAR FROM PAYDATE), SUM(PAYMENT) FROM PAYMENTS GROUP BY EXTRACT(YEAR FROM PAYDATE)",
		"SELECT * FROM PO_CUSTOMERS WHERE STATUS = 'OPEN' AND TOTAL BETWEEN 10 AND 500",
		"SELECT CUSTOMERID FROM CUSTOMERS EXCEPT SELECT CUSTID FROM PAYMENTS",
		"SELECT CUSTOMERID, CUSTOMERID FROM CUSTOMERS",
		"SELECT CUSTOMERID AS A, CUSTOMERNAME AS A, CITY AS \"A-2\" FROM CUSTOMERS ORDER BY A",
		"SELECT *, CUSTOMERID FROM CUSTOMERS",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	tr := New(catalog.NewCache(catalog.Demo()))
	f.Fuzz(func(t *testing.T, sql string) {
		res, err := tr.Translate(sql)
		if err != nil {
			return
		}
		xq := res.XQuery()
		if xq == "" {
			t.Fatalf("empty XQuery for %q", sql)
		}
		if _, err := xquery.Parse(xq); err != nil {
			t.Fatalf("generated XQuery does not parse back (input %q): %v\n%s", sql, err, xq)
		}
		for i, c := range res.Columns {
			for _, d := range res.Columns[:i] {
				if d.ElementName == c.ElementName {
					t.Fatalf("columns %q and %q share element name %q (input %q)", d.Label, c.Label, c.ElementName, sql)
				}
			}
		}
	})
}
