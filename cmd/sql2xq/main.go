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
// registered front end; default sql). -explain prints the statement's
// EXPLAIN — the lines the session's EXPLAIN statement returns: stage trace,
// compile and catalog cache effects, query contexts, the generated XQuery
// and the evaluator plan the engine runs.
package main

import (
	"context"
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
	explain := flag.Bool("explain", false, "print the statement's EXPLAIN (stage trace, cache effects, contexts, XQuery, plan) instead of the bare query")
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
	ctx := context.Background()
	if *explain {
		lines, err := p.Explain(ctx, aqualogic.Dialect(*dialect), sql, resultMode)
		if err != nil {
			fatal(err)
		}
		for _, line := range lines {
			fmt.Println(line)
		}
	}
	// After -explain this is a compile-cache hit on the artifact it rendered.
	cq, err := p.CompileDialect(ctx, aqualogic.Dialect(*dialect), sql, resultMode)
	if err != nil {
		fatal(err)
	}
	if !*explain {
		fmt.Print(cq.XQuery())
	}
	if *columns {
		fmt.Println()
		fmt.Println("-- result schema:")
		for i, c := range cq.Res.Columns {
			nullable := ""
			if c.Nullable {
				nullable = " NULL"
			}
			fmt.Printf("--   %d. %s %s%s (element <%s>)\n", i+1, c.Label, c.Type, nullable, c.ElementName)
		}
		if cq.Res.ParamCount > 0 {
			fmt.Printf("-- parameters: %d\n", cq.Res.ParamCount)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sql2xq:", err)
	os.Exit(1)
}
