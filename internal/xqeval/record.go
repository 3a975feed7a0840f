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
// straight from the source row — an element or a record — and the RECORD is
// one flat xdm.Record, two allocations however many columns it has. It
// keeps only the columns xquery.RecordReads finds read; the others are
// still looked up. The kernel charges exactly the steps the
// generic evaluation charges, and hands back — with nothing charged — a
// record whose source variable is not bound to one row, whose source
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

// recordKernel builds one RECORD constructor's record.
type recordKernel struct {
	shape xdm.RecordShape // every record built points at it
	// vars are the distinct source variables, in order of first use.
	vars []string
	cols []recordCol
}

// recordCol is one column copy: the row program's recognized constructor,
// its element name, the index of its source variable in vars, and its
// slot among the kept columns, -1 if dropped.
type recordCol struct {
	rowCol
	name string
	src  int
	slot int
}

// recordKernelOf recognizes a constructor every content item of which is a
// column copy, plain or NULL-guarded, of fn:data($v/COL); nil otherwise,
// and for more columns than a record holds.
func recordKernelOf(e *xquery.ElementCtor) *recordKernel {
	n := len(e.Content)
	if n == 0 || n > 64 {
		return nil
	}
	cols := make([]recordCol, n)
	for i, content := range e.Content {
		c := &cols[i]
		name, ok := c.matchCtor(content)
		if !ok || c.srcCol == "" {
			return nil
		}
		c.name, c.slot = name, i
	}
	// One slab of strings: the kept columns' names, then the source
	// variables.
	names := make([]string, 2*n)
	k := &recordKernel{shape: xdm.RecordShape{Name: e.Name, Cols: names[:n:n]}, vars: names[n:n], cols: cols}
	for i := range cols {
		names[i] = cols[i].name
		cols[i].src = k.varIndex(cols[i].srcVar)
	}
	return k
}

// keepReads applies one finding of xquery.RecordReads to ctor's kernel: ""
// keeps no column, a name keeps its columns too, "*" keeps them all.
func (p *Plan) keepReads(ctor *xquery.ElementCtor, name string) {
	k := p.records[ctor]
	if k == nil {
		return
	}
	k.shape.Cols = k.shape.Cols[:0]
	for i := range k.cols {
		c := &k.cols[i]
		if name == "*" || name != "" && (c.slot >= 0 || c.name == name) {
			c.slot = len(k.shape.Cols)
			k.shape.Cols = append(k.shape.Cols, c.name)
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
func (k *recordKernel) build(t *scope) (rec *xdm.Record, handled bool, err error) {
	// A join RECORD reads two rows; more than four is rare enough to
	// allocate for.
	var buf [4]xdm.Node
	rows := buf[:0]
	if len(k.vars) > len(buf) {
		rows = make([]xdm.Node, 0, len(k.vars))
	}
	for _, v := range k.vars {
		row, ok := boundRow(t, v)
		if !ok {
			return nil, false, nil
		}
		rows = append(rows, row)
	}
	cells := make([]string, len(k.shape.Cols))
	var present uint64
	steps := 0
	for i := range k.cols {
		c := &k.cols[i]
		text, n := xdm.Column(rows[c.src], c.srcCol)
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
		if c.slot >= 0 {
			cells[c.slot] = text
			present |= 1 << c.slot
		}
	}
	for ; steps > 0; steps-- {
		if err := t.step(); err != nil {
			return nil, true, err
		}
	}
	return &xdm.Record{Shape: &k.shape, Cells: cells, Present: present}, true, nil
}
