package xqeval

import (
	"slices"
	"strings"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// rowprog.go is the one encoder of §4 text rows. In text mode the
// generated query builds
//
//	<RECORD><COL>{value}</COL> …</RECORD>
//
// per row, and the wrapper then navigates that element once per column:
//
//	(">", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(
//	          fn:data($tokenQuery/COL))), "&null;"), "<", …)
//
// A row program is those tokens compiled once (planStream). It appends the
// bytes fn:string-join would have made of a row's tokens straight into the
// stream's batch buffer (or a morsel's), reading the row from RECORD
// elements (the record source) or, fused with a row FLWOR's RECORD
// constructor, from its tuples (the tuple source, plans only): there
// $tokenQuery/COL is the constructed <COL>, its typed value the string
// value of the constructor's content, and an absent <COL> (a NULL guard
// that fired) the if-empty default. The naive evaluator never fuses; its
// fn:string-join is the oracle both sources are held byte-identical to.

// rowProgram is the compiled form of one text-mode row.
type rowProgram struct {
	// fp is the row FLWOR's plan on the tuple source: the program replaces
	// its return clause on the final segment. nil on the record source.
	fp *flworPlan
	// limit is FETCH FIRST n over the tuple source's rows, -1 when absent.
	limit int64
	cols  []rowCol
}

// rowCol is one output column. On the record source it is guarded, srcCol
// names the RECORD child read, srcVar is $tokenQuery and value the token.
type rowCol struct {
	// delim is the literal token preceding the value; null is the token
	// for an absent column (the wrapper's if-empty default).
	delim, null string
	// guarded marks a constructor wrapped in `if (fn:empty(value)) then ()`:
	// an empty value is an absent column. Unguarded, an empty value is a
	// present, empty element — the empty string.
	guarded bool
	value   xquery.Expr
	// srcVar/srcCol are set when value is fn:data($srcVar/srcCol), the
	// shape of every plain column reference: the child's text is read
	// directly instead of going through evalExpr.
	srcVar, srcCol string
}

// newRowProgram compiles the wrapper's tokens into a record-source program:
// each pair a literal delimiter, then if-empty(xml-escape(serialize-atomic(
// fn:data($rowVar/NAME))), "null literal"). nil when they are not.
func newRowProgram(tokens xquery.Expr, rowVar string) *rowProgram {
	toks, ok := tokens.(*xquery.Seq)
	if !ok || len(toks.Items) == 0 || len(toks.Items)%2 != 0 {
		return nil
	}
	p := &rowProgram{limit: -1, cols: make([]rowCol, len(toks.Items)/2)}
	for i := range p.cols {
		if !p.cols[i].matchToken(toks.Items[2*i], toks.Items[2*i+1], rowVar) {
			return nil
		}
	}
	return p
}

// fuse switches a text-rows plan's program to the tuple source when its
// rows are one FLWOR (FETCH FIRST allowed) whose RECORD constructor builds
// the columns the tokens read, in order and once each; flwors is the
// plan's FLWOR table. Columns are rewritten in place once all qualify.
func (sp *StreamPlan) fuse(flwors map[xquery.Expr]*flworPlan) {
	p := sp.prog
	if p == nil {
		return
	}
	limit, rows := int64(-1), sp.rows
	if fc, ok := rows.(*xquery.FuncCall); ok {
		if n, inner, ok := subsequenceLimit(fc); ok {
			limit, rows = n, inner
		}
	}
	f, _ := rows.(*xquery.FLWOR)
	fp := flwors[f] // nil unless rows is a planned FLWOR
	if fp == nil {
		return
	}
	rec, ok := f.Return.(*xquery.ElementCtor)
	if !ok || rec.Name != "RECORD" || len(rec.Content) != len(p.cols) {
		return
	}
	for i, content := range rec.Content {
		var c rowCol
		name, ok := c.matchCtor(content)
		if !ok || name != p.cols[i].srcCol || slices.ContainsFunc(p.cols[:i], func(d rowCol) bool { return d.srcCol == name }) {
			return
		}
		// The RECORD evaluates a guarded value twice (guard, then content).
		// Once is the same only if evaluation charges nothing and calls
		// nothing outside the evaluator (a plain column read is).
		if c.guarded && c.srcCol == "" && !pureExpr(c.value) {
			return
		}
	}
	for i, content := range rec.Content {
		c := &p.cols[i]
		*c = rowCol{delim: c.delim, null: c.null}
		c.matchCtor(content)
	}
	p.fp, p.limit = fp, limit
}

// matchCtor recognizes <COL>{value}</COL> and its NULL-guarded form
// { if (fn:empty(value)) then () else <COL>{value}</COL> }.
func (c *rowCol) matchCtor(content xquery.ElemContent) (name string, ok bool) {
	var guardArg xquery.Expr
	if enc, isEnc := content.(*xquery.Enclosed); isEnc {
		cond, isIf := enc.Expr.(*xquery.If)
		if !isIf {
			return "", false
		}
		if _, isEmpty := cond.Then.(*xquery.EmptySeq); !isEmpty {
			return "", false
		}
		arg, isEmptyCall := unaryCall(cond.Cond, "fn:empty")
		elseCtor, isElem := cond.Else.(*xquery.ElementCtor)
		if !isEmptyCall || !isElem {
			return "", false
		}
		c.guarded, guardArg, content = true, arg, elseCtor
	}
	el, isElem := content.(*xquery.ElementCtor)
	if !isElem || len(el.Content) != 1 {
		return "", false
	}
	enc, isEnc := el.Content[0].(*xquery.Enclosed)
	if !isEnc {
		return "", false
	}
	c.value = enc.Expr
	// The compiled path shares one value node between guard and content; a
	// parsed query holds two equal copies.
	if c.guarded && guardArg != c.value && xquery.String(guardArg) != xquery.String(c.value) {
		return "", false
	}
	if arg, isData := unaryCall(enc.Expr, "fn:data"); isData {
		if v, col, isChild := childPath(arg); isChild {
			c.srcVar, c.srcCol = v, col
		}
	}
	return el.Name, true
}

// unaryCall matches name(arg).
func unaryCall(e xquery.Expr, name string) (arg xquery.Expr, ok bool) {
	fc, isCall := e.(*xquery.FuncCall)
	if !isCall || fc.Name != name || len(fc.Args) != 1 {
		return nil, false
	}
	return fc.Args[0], true
}

// matchToken recognizes the wrapper's token pair for one column: a literal
// delimiter, then if-empty(xml-escape(serialize-atomic(fn:data($rowVar/
// NAME))), "null literal").
func (c *rowCol) matchToken(delim, value xquery.Expr, rowVar string) bool {
	d, ok := delim.(*xquery.StringLit)
	if !ok {
		return false
	}
	ifEmpty, ok := value.(*xquery.FuncCall)
	if !ok || ifEmpty.Name != "fn-bea:if-empty" || len(ifEmpty.Args) != 2 {
		return false
	}
	null, ok := ifEmpty.Args[1].(*xquery.StringLit)
	if !ok {
		return false
	}
	e := ifEmpty.Args[0]
	for _, fn := range [...]string{"fn-bea:xml-escape", "fn-bea:serialize-atomic", "fn:data"} {
		if e, ok = unaryCall(e, fn); !ok {
			return false
		}
	}
	v, name, ok := childPath(e)
	if !ok || v != rowVar {
		return false
	}
	c.delim, c.null, c.guarded, c.value, c.srcVar, c.srcCol = d.Value, null.Value, true, value, rowVar, name
	return true
}

// childPath matches $v/NAME: one predicate-free named child step.
func childPath(e xquery.Expr) (v, name string, ok bool) {
	p, isPath := e.(*xquery.Path)
	if !isPath || len(p.Steps) != 1 || p.Steps[0].Name == "*" || len(p.Steps[0].Predicates) != 0 {
		return "", "", false
	}
	base, isVar := p.Base.(*xquery.Var)
	if !isVar {
		return "", "", false
	}
	return base.Name, p.Steps[0].Name, true
}

// pureExpr reports whether evaluating e twice is indistinguishable from
// evaluating it once: no FLWOR (which charges rows and tuples) and no call
// outside the builtin library (data services count calls, fail, and time
// out).
func pureExpr(e xquery.Expr) bool {
	pure := true
	xquery.WalkExprs(e, func(e xquery.Expr) bool {
		switch n := e.(type) {
		case *xquery.FLWOR:
			pure = false
		case *xquery.FuncCall:
			if _, builtin := builtins[n.Name]; !builtin {
				if _, cast := castTargets[n.Name]; !cast {
					pure = false
				}
			}
		}
		return pure
	})
	return pure
}

// rows is the text rows' source: on the tuple source the row FLWOR's
// executor, running the program as its return clause; on the record
// source the program encoding each item rows produces.
func (p *rowProgram) rows(rows xquery.Expr, env *scope, ps *pools) textRows {
	if p.fp != nil {
		return newExec(p.fp, env, p, ps).fill
	}
	items := rowsOf(rows, env, ps)
	return func(w *rowWriter, n int) error {
		for w.n() < n {
			it, err := items()
			if it == nil || err != nil {
				return err
			}
			if err := p.record(it, env, w); err != nil {
				return err
			}
		}
		return nil
	}
}

// record writes the rows in one item of the row expression — the record
// source: a RECORD element is a row, a document splices its children, and
// anything else is dropped, as the wrapper's /RECORD step drops it. A row
// charges what its tokens charge: the $tokenQuery tuple against MaxTuples,
// a cancellation check, then the 2n tokens against MaxRows.
func (p *rowProgram) record(it xdm.Item, env *scope, w *rowWriter) error {
	switch n := it.(type) {
	case *xdm.Document:
		for _, ch := range n.Children {
			if err := p.record(ch, env, w); err != nil {
				return err
			}
		}
	case *xdm.Element, *xdm.Record:
		if xdm.LocalName(n.(xdm.Node)) != "RECORD" {
			return nil
		}
		if err := env.countTuple(); err != nil {
			return err
		}
		if err := env.checkCancel(); err != nil {
			return err
		}
		buf := w.open()
		b := *buf
		for i := range p.cols {
			c := &p.cols[i]
			b = append(b, c.delim...)
			var k int
			if b, k = c.appendChildText(b, n.(xdm.Node)); k > 1 { // the token's own error
				_, err := evalExpr(c.value, env.bindItem(c.srcVar, n))
				return err
			}
		}
		*buf = b
		if err := env.countRows(2 * len(p.cols)); err != nil {
			return err
		}
		w.end()
	}
	return nil
}

// run appends one tuple's row to *buf — the tuple source. It charges
// exactly what the RECORD and its record-source row charge, in the same
// order: a cancellation check, the RECORD item against MaxRows, the
// $tokenQuery binding against MaxTuples, a cancellation check, then the
// row's tokens against MaxRows.
func (p *rowProgram) run(t *scope, buf *[]byte) error {
	if err := t.checkCancel(); err != nil {
		return err
	}
	if err := t.step(); err != nil {
		return err
	}
	b := *buf
	for i := range p.cols {
		c := &p.cols[i]
		b = append(b, c.delim...)
		var err error
		if b, err = c.appendValue(b, t); err != nil {
			return err
		}
	}
	*buf = b
	if err := t.countRows(1); err != nil {
		return err
	}
	if err := t.countTuple(); err != nil {
		return err
	}
	if err := t.checkCancel(); err != nil {
		return err
	}
	return t.countRows(2 * len(p.cols))
}

// appendValue appends one column's token: the escaped string value the
// constructed <COL> would have had, or the NULL token when it would have
// been absent.
func (c *rowCol) appendValue(b []byte, t *scope) ([]byte, error) {
	if c.srcCol != "" {
		if row, ok := boundRow(t, c.srcVar); ok {
			b, _ = c.appendChildText(b, row)
			return b, nil
		}
	}
	v, err := evalExpr(c.value, t)
	if err != nil {
		return nil, err
	}
	if len(v) == 0 && c.guarded {
		return append(b, c.null...), nil
	}
	return xdm.AppendEscapedText(b, contentString(v)), nil
}

// appendChildText appends fn:data($row/srcCol) as element content — the
// text of each column named srcCol, space-joined (adjacent atomics) — or,
// when there is none, the NULL token if guarded, and reports how many
// columns it read.
func (c *rowCol) appendChildText(b []byte, row xdm.Node) ([]byte, int) {
	text, n := xdm.Column(row, c.srcCol)
	switch {
	case n == 1:
		b = xdm.AppendEscapedText(b, text)
	case n > 1:
		sep := ""
		for text, i := xdm.NextColumn(row, c.srcCol, 0); i >= 0; text, i = xdm.NextColumn(row, c.srcCol, i) {
			b = xdm.AppendEscapedText(append(b, sep...), text)
			sep = " "
		}
	case c.guarded:
		b = append(b, c.null...)
	}
	return b, n
}

// contentString is the string value of an element constructed with v as
// its enclosed content — appendContent without the element: adjacent
// atomics space-joined, nodes contributing their text, attributes nothing.
func contentString(v xdm.Sequence) string {
	if len(v) == 1 {
		if a, ok := v[0].(xdm.Atomic); ok {
			return a.Lexical()
		}
	}
	var sb strings.Builder
	prevAtomic := false
	for _, it := range v {
		switch n := it.(type) {
		case xdm.Atomic:
			if prevAtomic {
				sb.WriteByte(' ')
			}
			sb.WriteString(n.Lexical())
			prevAtomic = true
		case *xdm.Element, *xdm.Text, *xdm.Record, *xdm.Document:
			sb.WriteString(xdm.StringValue(n))
			prevAtomic = false
		}
	}
	return sb.String()
}
