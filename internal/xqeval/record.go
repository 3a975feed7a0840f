package xqeval

import (
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// record.go holds the column-record kernel. The §3.5 join, outer-join and
// GROUP BY translations materialize an intermediate RECORDSET whose every
// RECORD is a list of column copies
//
//	<RECORD>
//	  <A.X>{fn:data($a/X)}</A.X>
//	  { if (fn:empty(fn:data($b/Y))) then () else <B.Y>{fn:data($b/Y)}</B.Y> }
//	  …
//	</RECORD>
//
// Generically each column costs an if, an fn:empty, two fn:data calls, two
// path steps, two sequences and a constructed element with its own child
// slice. The planner recognizes such a constructor once per plan, with the
// row program's rowCol.matchCtor, and constructElement hands it to the
// kernel: each source variable is resolved once, each column's text is read
// straight from the source row, and the RECORD is assembled from three slab
// allocations however many columns it has. The children are fresh nodes,
// never the source row's, and only those xquery.RecordReads finds read; the
// others are still looked up. The kernel charges exactly the steps the
// generic evaluation charges, and hands back — with nothing charged — a
// record whose source variable is not bound to one element, whose source
// row repeats a column, or whose unguarded column is missing. The naive
// evaluator has no plan, so it never sees a kernel and stays the oracle.

// Steps the generic evaluation charges per column, all at the record's
// depth: fn:data, its path and its variable for a plain column; for a
// guarded one the if, fn:empty and the guard's three, then the else
// branch's constructor and its three, or the empty then branch.
const (
	plainColumnSteps  = 3
	presentGuardSteps = 9
	absentGuardSteps  = 6
)

// recordKernel builds one RECORD constructor's element.
type recordKernel struct {
	name string
	// vars are the distinct source variables, in order of first use.
	vars []string
	cols []recordCol
	kept int // columns built; a column's slot among them, -1 if dropped
}

// recordCol is one column copy: the row program's recognized constructor,
// its element name, and the index of its source variable in vars.
type recordCol struct {
	rowCol
	name string
	src  int
	slot int
}

// recordKernelOf recognizes a constructor every content item of which is a
// column copy, plain or NULL-guarded, of fn:data($v/COL); nil otherwise.
func recordKernelOf(e *xquery.ElementCtor) *recordKernel {
	if len(e.Content) == 0 {
		return nil
	}
	k := &recordKernel{name: e.Name, cols: make([]recordCol, len(e.Content))}
	for i, content := range e.Content {
		c := &k.cols[i]
		name, ok := c.matchCtor(content)
		if !ok || c.srcCol == "" {
			return nil
		}
		c.name = name
		c.src = k.varIndex(c.srcVar)
		c.slot = i
	}
	k.kept = len(k.cols)
	return k
}

// keepReads applies one finding of xquery.RecordReads to ctor's kernel: ""
// keeps no column, a name keeps its columns too, "*" keeps them all.
func (p *Plan) keepReads(ctor *xquery.ElementCtor, name string) {
	k := p.records[ctor]
	if k == nil {
		return
	}
	k.kept = 0
	for i := range k.cols {
		c := &k.cols[i]
		if name == "*" || name != "" && (c.slot >= 0 || c.name == name) {
			c.slot = k.kept
			k.kept++
		} else {
			c.slot = -1
		}
	}
}

func (k *recordKernel) varIndex(v string) int {
	for i, seen := range k.vars {
		if seen == v {
			return i
		}
	}
	k.vars = append(k.vars, v)
	return len(k.vars) - 1
}

// build constructs the record on t. handled is false, with nothing charged,
// when the record is one the kernel hands back.
func (k *recordKernel) build(t *scope) (el *xdm.Element, handled bool, err error) {
	// A join RECORD reads two rows; more than four is rare enough to
	// allocate for.
	var buf [4]*xdm.Element
	rows := buf[:0]
	if len(k.vars) > len(buf) {
		rows = make([]*xdm.Element, 0, len(k.vars))
	}
	for _, v := range k.vars {
		row, ok := boundRow(t, v)
		if !ok {
			return nil, false, nil
		}
		rows = append(rows, row)
	}
	// One slab of elements (the kept columns, then the record), one of
	// texts. A kept column is present when its element is named.
	els := make([]xdm.Element, k.kept+1)
	texts := make([]xdm.Text, k.kept)
	present, nonEmpty, steps := 0, 0, 0
	for i := range k.cols {
		c := &k.cols[i]
		text, n := firstColumn(rows[c.src], c.srcCol)
		switch {
		case n > 1, n == 0 && !c.guarded:
			return nil, false, nil
		case n == 0:
			steps += absentGuardSteps
			continue
		case c.guarded:
			steps += presentGuardSteps
		default:
			steps += plainColumnSteps
		}
		if c.slot < 0 {
			continue
		}
		els[c.slot].Name.Local = c.name
		texts[c.slot].Value = text
		present++
		if text != "" {
			nonEmpty++
		}
	}
	rec := &els[k.kept]
	rec.Name.Local = k.name
	if present > 0 {
		// The record's children, then each column's one text child, each
		// slice capped at its length.
		nodes := make([]xdm.Node, present+nonEmpty)
		children, textNodes := nodes[:0:present], nodes[present:]
		for i := range texts {
			col := &els[i]
			if col.Name.Local == "" {
				continue
			}
			children = append(children, col)
			if texts[i].Value != "" {
				textNodes[0] = &texts[i]
				col.Children, textNodes = textNodes[:1:1], textNodes[1:]
			}
		}
		rec.Children = children
	}
	for ; steps > 0; steps-- {
		if err := t.step(); err != nil {
			return nil, true, err
		}
	}
	return rec, true, nil
}
