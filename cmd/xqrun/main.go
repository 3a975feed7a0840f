// Command xqrun compiles and executes XQuery text against the demo
// deployment's data service functions — the engine's standalone face, the
// way the paper's DSP server consumes the driver's generated queries.
//
// Usage:
//
//	xqrun 'for $c in ns0:CUSTOMERS() return fn:data($c/CUSTOMERNAME)'
//	sql2xq "SELECT * FROM CUSTOMERS" | xqrun
//
// Queries reference data services through schema imports; for convenience,
// the prefixes ns0–ns3 are pre-bound to the demo namespaces when the query
// has no prolog of its own (ns0=CUSTOMERS, ns1=PAYMENTS, ns2=PO_CUSTOMERS,
// ns3=PO_ITEMS).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/demo"
	"repro/internal/obsv"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

func main() {
	stats := flag.Bool("stats", false, "print evaluation stats (wall time, evaluator steps, result size) to stderr")
	flag.Parse()
	var src string
	if flag.NArg() > 0 {
		src = strings.Join(flag.Args(), " ")
	} else {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}
	if strings.TrimSpace(src) == "" {
		fatal(fmt.Errorf("no XQuery given (pass as argument or on stdin)"))
	}

	q, err := xquery.Parse(src)
	if err != nil {
		fatal(err)
	}
	if len(q.Prolog.SchemaImports) == 0 {
		q.Prolog.SchemaImports = []xquery.SchemaImport{
			{Prefix: "ns0", Namespace: "ld:TestDataServices/CUSTOMERS", Location: "ld:TestDataServices/schemas/CUSTOMERS.xsd"},
			{Prefix: "ns1", Namespace: "ld:TestDataServices/PAYMENTS", Location: "ld:TestDataServices/schemas/PAYMENTS.xsd"},
			{Prefix: "ns2", Namespace: "ld:TestDataServices/PO_CUSTOMERS", Location: "ld:TestDataServices/schemas/PO_CUSTOMERS.xsd"},
			{Prefix: "ns3", Namespace: "ld:TestDataServices/PO_ITEMS", Location: "ld:TestDataServices/schemas/PO_ITEMS.xsd"},
		}
	}

	_, _, engine := demo.Setup(demo.DefaultSizes)
	plan, err := engine.CompileAST(q, nil)
	if err != nil {
		fatal(err)
	}
	tr := obsv.NewTrace(src)
	out, err := engine.EvalPlanWithTrace(context.Background(), plan, nil, tr)
	if err != nil {
		fatal(err)
	}
	if *stats {
		if ev, ok := tr.Stage(obsv.StageEvaluate); ok {
			fmt.Fprintf(os.Stderr, "evaluate: %s, steps=%d, items=%d\n",
				ev.Duration, ev.DetailValue("steps"), ev.OutSize)
		}
	}
	for _, it := range out {
		switch v := it.(type) {
		case *xdm.Element, *xdm.Record:
			fmt.Print(xdm.MarshalIndent(v.(xdm.Node)))
		default:
			fmt.Println(xdm.StringValue(it))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xqrun:", err)
	os.Exit(1)
}
