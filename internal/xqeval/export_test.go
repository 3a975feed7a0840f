package xqeval

import (
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// MustCompile is e.CompileAST(q) with ext's names declared external,
// failing tb on a static error.
func MustCompile(tb testing.TB, e *Engine, q *xquery.Query, ext map[string]xdm.Sequence) *Plan {
	tb.Helper()
	p, err := e.CompileAST(q, externalNames(ext))
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return p
}

// externalNames is the names ext binds.
func externalNames(ext map[string]xdm.Sequence) []string {
	names := make([]string, 0, len(ext))
	for name := range ext {
		names = append(names, name)
	}
	return names
}

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

// FreshKept returns a copy of p with kept slots of its own, all empty: its
// first evaluation builds every closed build, whatever p has kept.
func FreshKept(p *Plan) *Plan {
	cp := *p
	cp.kept = make([]keptSlot, len(p.kept))
	for i := range p.kept {
		cp.kept[i].srcs, cp.kept[i].let = p.kept[i].srcs, p.kept[i].let
	}
	if cp.kept != nil {
		cp.release = newKeptRelease(cp.kept)
	}
	return &cp
}

// KeptItems is the items the kept values of e's plans hold together.
func KeptItems(e *Engine) int64 { return e.kept.items.Load() }

// KeepAllColumns returns a copy of p whose record kernels build every
// column, as they did before the consumer analysis pruned them. The copy
// keeps its own closed builds: a value p kept holds p's pruned records.
func KeepAllColumns(p *Plan) *Plan {
	cp := *FreshKept(p)
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
