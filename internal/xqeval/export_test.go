package xqeval

import (
	"strings"

	"repro/internal/xquery"
)

// KeptColumns lists, for each column-record kernel of p in body order, the
// names of the columns it builds, space-separated.
func KeptColumns(p *Plan) []string {
	var out []string
	xquery.WalkExprs(p.Query.Body, func(e xquery.Expr) bool {
		if ctor, ok := e.(*xquery.ElementCtor); ok {
			if k := p.records[ctor]; k != nil {
				var names []string
				for _, c := range k.cols {
					if c.slot >= 0 {
						names = append(names, c.name)
					}
				}
				out = append(out, strings.Join(names, " "))
				return false
			}
		}
		return true
	})
	return out
}

// KeepAllColumns returns a copy of p whose record kernels build every
// column, as they did before the consumer analysis pruned them.
func KeepAllColumns(p *Plan) *Plan {
	cp := *p
	cp.records = make(map[*xquery.ElementCtor]*recordKernel, len(p.records))
	for ctor, k := range p.records {
		whole := *k
		whole.cols = append([]recordCol(nil), k.cols...)
		whole.shape.Cols = make([]string, 0, len(k.cols))
		cp.records[ctor] = &whole
		cp.keepReads(ctor, "*")
	}
	return &cp
}
