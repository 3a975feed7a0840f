// Logicalds: the paper's data-services layering (§2). Physical data
// services expose raw sources; *logical* data services are authored on top
// of them as queries, becoming first-class, queryable, composable services
// themselves. Here the logical layer is defined in SQL (each view is
// translated to XQuery once and registered as a new data service
// function), then reported on through plain SQL — including a view over a
// view.
package main

import (
	"fmt"
	"log"

	aqualogic "repro"
)

func main() {
	p := aqualogic.Demo() // physical layer: CUSTOMERS, PAYMENTS, PO_*

	// Logical layer 1: per-customer order statistics.
	if err := p.DefineView("Logical", "CUSTOMER_ORDERS", `
		SELECT C.CUSTOMERID AS ID, C.CUSTOMERNAME AS NAME, C.CITY,
		       COUNT(O.ORDERID) AS ORDERS, SUM(O.TOTAL) AS REVENUE
		FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID
		GROUP BY C.CUSTOMERID, C.CUSTOMERNAME, C.CITY`); err != nil {
		log.Fatal(err)
	}

	// Logical layer 2: a view over the view — city-level rollup.
	if err := p.DefineView("Logical", "CITY_REVENUE", `
		SELECT CITY, COUNT(*) AS CUSTOMERS, SUM(REVENUE) AS REVENUE
		FROM CUSTOMER_ORDERS WHERE CITY IS NOT NULL GROUP BY CITY`); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== top cities (a SQL query over a view over a view) ==")
	rows, err := p.Query(`SELECT CITY, CUSTOMERS, REVENUE FROM CITY_REVENUE
		ORDER BY REVENUE DESC FETCH FIRST 5 ROWS ONLY`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rows.Table())

	// The logical services join freely with the physical layer.
	fmt.Println("\n== customers whose revenue beats their city's average ==")
	rows, err = p.Query(`
		SELECT V.NAME, V.CITY, V.REVENUE
		FROM CUSTOMER_ORDERS V INNER JOIN CITY_REVENUE R ON V.CITY = R.CITY
		WHERE V.REVENUE > R.REVENUE / R.CUSTOMERS
		ORDER BY V.REVENUE DESC FETCH FIRST 5 ROWS ONLY`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rows.Table())

	// And the whole logical layer is visible to SQL tools via the driver.
	fmt.Println("\n== what the generated XQuery for the rollup looks like ==")
	res, err := p.Translate("SELECT CITY, REVENUE FROM CITY_REVENUE WHERE REVENUE > 1000", aqualogic.ModeXML)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.XQuery())
}
