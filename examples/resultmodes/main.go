// Resultmodes: demonstrates §4 of the paper — the two result-handling
// strategies of the JDBC driver. The same SQL runs twice: once returning
// the natural RECORDSET XML (materialized and parsed client-side), once
// wrapped in the fn:string-join query that yields delimiter-separated text.
// The example prints both payloads for a tiny result, then times both
// decoders on a larger one.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	aqualogic "repro"
	"repro/internal/resultset"
	"repro/internal/xdm"
)

func main() {
	p := aqualogic.Demo()
	sql := "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID < 1003 ORDER BY CUSTOMERID"

	// What travels in XML mode.
	xmlRes, err := p.Translate(sql, aqualogic.ModeXML)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== XML mode: the tail of the generated query ==")
	fmt.Println(lastLines(xmlRes.XQuery(), 12))

	// What travels in text mode: same query wrapped per §4.
	textRes, err := p.Translate(sql, aqualogic.ModeText)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== text mode: the §4 wrapper around the same query ==")
	fmt.Println(firstLines(textRes.XQuery(), 6))
	fmt.Println("  …")

	rows, err := p.QueryStreamMode(context.Background(), aqualogic.ModeText, sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== decoded rows (identical in both modes) ==")
	fmt.Print(rows.Table())

	// The §4 measurement on a larger result: 5000 rows × 6 columns,
	// serialized in both modes, then decoded the way the driver would.
	wide := wideTable(5000, 6)
	xmlPayload, cols := payload(wide, aqualogic.ModeXML)
	textPayload, _ := payload(wide, aqualogic.ModeText)
	fmt.Printf("\n== payload sizes for 5000×6 ==\nXML:  %d bytes\ntext: %d bytes (%.2fx smaller)\n",
		len(xmlPayload), len(textPayload), float64(len(xmlPayload))/float64(len(textPayload)))

	timeDecode := func(name string, f func() error) time.Duration {
		const iters = 10
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				log.Fatal(err)
			}
		}
		d := time.Since(start) / iters
		fmt.Printf("%s decode: %s per result set\n", name, d.Round(time.Microsecond))
		return d
	}
	xmlTime := timeDecode("XML ", func() error { _, err := resultset.FromXMLString(xmlPayload, cols); return err })
	textTime := timeDecode("text", func() error { _, err := resultset.FromText(textPayload, cols); return err })
	fmt.Printf("text mode is %.1fx faster — the \"measurable improvement\" §4 reports\n",
		float64(xmlTime)/float64(textTime))
}

// wideTable is a platform over one synthetic table W: rows × cols of
// alternating integer / string / decimal columns, the strings carrying
// markup that both modes must escape.
func wideTable(rows, cols int) *aqualogic.Platform {
	types := []aqualogic.Column{
		{Type: aqualogic.SQLInteger},
		{Type: aqualogic.SQLVarchar, Precision: 32},
		{Type: aqualogic.SQLDecimal, Precision: 10, Scale: 2},
	}
	columns := make([]aqualogic.Column, cols)
	for c := range columns {
		columns[c] = types[c%3]
		columns[c].Name = fmt.Sprintf("C%d", c)
	}
	app := &aqualogic.Application{Name: "Wide"}
	app.AddDSFile(&aqualogic.DSFile{Path: "Wide", Name: "W",
		Functions: []*aqualogic.Function{aqualogic.NewRelationalImport("Wide", "W", columns)}})
	data := make([]*aqualogic.Element, rows)
	for r := range data {
		pairs := make([]string, 0, 2*cols)
		for c := range columns {
			v := fmt.Sprint(r*31 + c)
			switch c % 3 {
			case 1:
				v = fmt.Sprintf("value-%d-%d 100%% & <sons>", r, c)
			case 2:
				v = fmt.Sprintf("%d.%02d", r%1000, c)
			}
			pairs = append(pairs, columns[c].Name, v)
		}
		data[r] = aqualogic.NewRow("W", pairs...)
	}
	engine := aqualogic.NewEngine()
	aqualogic.RegisterRows(engine, "ld:Wide/W", "W", data)
	return aqualogic.New(app, engine)
}

// payload evaluates SELECT * FROM W in one result mode and returns what
// would travel to the driver, plus the schema that decodes it.
func payload(p *aqualogic.Platform, mode aqualogic.ResultMode) (string, []resultset.Column) {
	cq, err := p.CompileContext(context.Background(), "SELECT * FROM W", mode)
	if err != nil {
		log.Fatal(err)
	}
	out, err := p.Engine.EvalPlanWithTrace(context.Background(), cq.Plan, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	cols := make([]resultset.Column, len(cq.Res.Columns))
	for i, c := range cq.Res.Columns {
		cols[i] = resultset.Column{Label: c.Label, ElementName: c.ElementName, Type: c.Type, Nullable: c.Nullable}
	}
	if root, ok := out[0].(*aqualogic.Element); ok {
		return xdm.Marshal(root), cols
	}
	return xdm.StringValue(out[0]), cols
}

func firstLines(s string, n int) string {
	out, count := "", 0
	for _, line := range splitLines(s) {
		out += line + "\n"
		count++
		if count == n {
			break
		}
	}
	return out
}

func lastLines(s string, n int) string {
	lines := splitLines(s)
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	out := ""
	for _, line := range lines {
		out += line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
