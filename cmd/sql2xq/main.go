// Command sql2xq translates SQL-92 SELECT statements into XQuery against
// the demo application's catalog, printing the generated query — the
// translator half of the paper's JDBC driver, exposed as a CLI.
//
// Usage:
//
//	sql2xq [-dialect sql|path] [-mode xml|text] [-columns] [-explain] "SELECT * FROM CUSTOMERS"
//	echo "SELECT ..." | sql2xq
//
// -dialect selects the query language the statement is written in (any
// registered front end; default sql). -explain prints the stage-by-stage
// translation trace (wall time, sizes, stage detail) and the catalog
// cache effect before the generated query.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	aqualogic "repro"
)

func main() {
	mode := flag.String("mode", "xml", "result handling mode: xml (RECORDSET output) or text (§4 delimiter-separated wrapper)")
	dialect := flag.String("dialect", "sql", "query language the statement is written in (a registered dialect: sql, path)")
	columns := flag.Bool("columns", false, "also print the computed result schema")
	explain := flag.Bool("explain", false, "print the stage trace (lex/parse/…/serialize timings and detail) before the query")
	flag.Parse()

	var sql string
	if flag.NArg() > 0 {
		sql = strings.Join(flag.Args(), " ")
	} else {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		sql = string(data)
	}
	if strings.TrimSpace(sql) == "" {
		fatal(fmt.Errorf("no SQL given (pass as argument or on stdin)"))
	}

	resultMode := aqualogic.ModeXML
	switch *mode {
	case "xml":
	case "text":
		resultMode = aqualogic.ModeText
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	p := aqualogic.Demo()
	var res *aqualogic.Translation
	var err error
	if *explain {
		var trace *aqualogic.Trace
		res, trace, err = p.ExplainDialect(aqualogic.Dialect(*dialect), sql, resultMode)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("-- dialect: %s\n", *dialect)
		fmt.Println("-- stage trace:")
		trace.Render(os.Stdout, true)
		cache := p.MetadataStats()
		fmt.Printf("-- catalog cache: hits=%d misses=%d\n", cache.Hits, cache.Misses)
		fmt.Println("-- query contexts (stage one):")
		fmt.Print(res.Contexts.Tree())
		fmt.Println("-- generated XQuery (stage three):")
	} else {
		res, err = p.TranslateDialect(aqualogic.Dialect(*dialect), sql, resultMode)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Print(res.XQuery())
	if *explain {
		fmt.Println("-- query plan (evaluator):")
		plan := aqualogic.PlanQuery(res)
		for _, line := range plan.Describe() {
			fmt.Println(line)
		}
		fmt.Println("-- streaming: " + plan.Stream.Describe())
	}
	if *columns {
		fmt.Println()
		fmt.Println("-- result schema:")
		for i, c := range res.Columns {
			nullable := ""
			if c.Nullable {
				nullable = " NULL"
			}
			fmt.Printf("--   %d. %s %s%s (element <%s>)\n", i+1, c.Label, c.Type, nullable, c.ElementName)
		}
		if res.ParamCount > 0 {
			fmt.Printf("-- parameters: %d\n", res.ParamCount)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sql2xq:", err)
	os.Exit(1)
}
