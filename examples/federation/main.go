// Federation: the heterogeneous-integration story from the paper's
// introduction. Two very different "physical data services" — a
// relational-style table and a computed function standing in for a Web
// service — are exposed through one catalog and joined with plain SQL,
// which the driver translates into a single XQuery over both functions.
package main

import (
	"fmt"
	"log"

	aqualogic "repro"
)

func main() {
	app := &aqualogic.Application{Name: "FederationApp"}
	// A relational import: the employee roster.
	app.AddDSFile(&aqualogic.DSFile{
		Path: "HR",
		Name: "EMPLOYEES",
		Functions: []*aqualogic.Function{
			aqualogic.NewRelationalImport("HR", "EMPLOYEES", []aqualogic.Column{
				{Name: "EMPID", Type: aqualogic.SQLInteger},
				{Name: "NAME", Type: aqualogic.SQLVarchar, Precision: 40},
				{Name: "OFFICE", Type: aqualogic.SQLVarchar, Nullable: true, Precision: 8},
			}),
		},
	})
	// A "Web service" data service: office info served by code, not rows.
	app.AddDSFile(&aqualogic.DSFile{
		Path: "Facilities",
		Name: "OFFICES",
		Functions: []*aqualogic.Function{{
			Name:           "OFFICES",
			RowElement:     "OFFICES",
			Namespace:      "ld:Facilities/OFFICES",
			SchemaLocation: "ld:Facilities/schemas/OFFICES.xsd",
			Columns: []aqualogic.Column{
				{Name: "CODE", Type: aqualogic.SQLVarchar, Precision: 8},
				{Name: "CITY", Type: aqualogic.SQLVarchar, Precision: 24},
				{Name: "TIMEZONE", Type: aqualogic.SQLVarchar, Precision: 16},
			},
		}},
	})

	engine := aqualogic.NewEngine()
	aqualogic.RegisterRows(engine, "ld:HR/EMPLOYEES", "EMPLOYEES", []*aqualogic.Element{
		aqualogic.NewRow("EMPLOYEES", "EMPID", "1", "NAME", "Carey", "OFFICE", "SJC"),
		aqualogic.NewRow("EMPLOYEES", "EMPID", "2", "NAME", "Borkar", "OFFICE", "SJC"),
		aqualogic.NewRow("EMPLOYEES", "EMPID", "3", "NAME", "Jigyasu", "OFFICE", "PNQ"),
		aqualogic.NewRow("EMPLOYEES", "EMPID", "4", "NAME", "Remote Rita", "OFFICE", ""),
	})
	// The OFFICES "service" computes its result on every call — the
	// engine only sees a function returning flat XML, exactly as DSP
	// treats a Web service data source.
	offices := map[string][2]string{
		"SJC": {"San Jose", "US/Pacific"},
		"PNQ": {"Pune", "Asia/Kolkata"},
		"LHR": {"London", "Europe/London"},
	}
	engine.Register("ld:Facilities/OFFICES", "OFFICES",
		func(args []aqualogic.Sequence) (aqualogic.Sequence, error) {
			var out aqualogic.Sequence
			for _, code := range []string{"LHR", "PNQ", "SJC"} {
				info := offices[code]
				row := aqualogic.NewRow("OFFICES", "CODE", code, "CITY", info[0], "TIMEZONE", info[1])
				out = append(out, row)
			}
			return out, nil
		})

	p := aqualogic.New(app, engine)

	sql := `SELECT E.NAME, O.CITY, O.TIMEZONE
		FROM EMPLOYEES E LEFT OUTER JOIN OFFICES O ON E.OFFICE = O.CODE
		ORDER BY E.EMPID`
	fmt.Println("-- one SQL query spanning a table and a computed service:")
	fmt.Println(sql)

	res, err := p.Translate(sql, aqualogic.ModeXML)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-- translates to a single XQuery over both data service functions:")
	fmt.Println(res.XQuery())

	rows, err := p.Query(sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- federated result (Remote Rita has no office → NULLs):")
	fmt.Print(rows.Table())

	// The reverse direction also works: which offices have no employees?
	rows, err = p.Query(`SELECT CODE, CITY FROM OFFICES
		WHERE CODE NOT IN (SELECT OFFICE FROM EMPLOYEES WHERE OFFICE IS NOT NULL)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- offices with no employees:")
	fmt.Print(rows.Table())

}
