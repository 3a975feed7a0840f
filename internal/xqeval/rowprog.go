package xqeval

import (
	"strings"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// rowprog.go fuses the translator's RECORD constructor with the §4 token
// wrapper that consumes it. In text mode the generated query builds
//
//	<RECORD><COL>{value}</COL> …</RECORD>
//
// per row, and the wrapper then navigates that element once per column:
//
//	(">", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(
//	          fn:data($tokenQuery/COL))), "&null;"), "<", …)
//
// Composing the constructor with the paths over it removes the element:
// $tokenQuery/COL is the constructed <COL>, its typed value is the string
// value of the constructor's content, and an absent <COL> (a NULL guard that
// fired) is the if-empty default. A row program is that composition,
// compiled once per plan: one entry per output column holding the value
// expression, its NULL guard and its delimiter. Run against a tuple, it
// appends delimiter + escaped lexical form straight into the stream's
// batch buffer (or a morsel's) — the same bytes fn:string-join would have
// produced from the row's tokens.
//
// The program exists only on plans (buildPlan). The naive evaluator never
// sees one: it keeps building and re-reading the RECORD, and is the oracle
// the fused path is held byte-identical to.

// rowProgram is the compiled form of one text-mode row.
type rowProgram struct {
	// fp is the row FLWOR's plan; the program replaces its return clause
	// in the final tuple sink.
	fp *flworPlan
	// limit is FETCH FIRST n over the rows, -1 when absent.
	limit int64
	cols  []rowCol
}

// rowCol is one output column.
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

// fuse compiles the row program for a text-rows decomposition, or records
// why the shape does not qualify. flwors is the plan's FLWOR table.
func (sp *StreamPlan) fuse(flwors map[xquery.Expr]*flworPlan) {
	if sp.Kind != StreamTextRows {
		return
	}
	prog := &rowProgram{limit: -1}
	rows := sp.rows
	if fc, ok := rows.(*xquery.FuncCall); ok {
		if n, inner, ok := subsequenceLimit(fc); ok {
			prog.limit, rows = n, inner
		}
	}
	f, ok := rows.(*xquery.FLWOR)
	if !ok {
		sp.unfused = "rows are not a single FLWOR"
		return
	}
	rec, ok := f.Return.(*xquery.ElementCtor)
	if !ok || rec.Name != "RECORD" {
		sp.unfused = "return is not a RECORD constructor"
		return
	}
	toks, ok := sp.ret.(*xquery.Seq)
	if !ok || len(toks.Items) != 2*len(rec.Content) || len(rec.Content) == 0 {
		sp.unfused = "tokens do not pair with the constructor's columns"
		return
	}
	prog.cols = make([]rowCol, len(rec.Content))
	for i, content := range rec.Content {
		c := &prog.cols[i]
		name, ok := c.matchCtor(content)
		if !ok {
			sp.unfused = "a RECORD child is not a column constructor"
			return
		}
		if !c.matchToken(toks.Items[2*i], toks.Items[2*i+1], sp.tokenVar, name) {
			sp.unfused = "token for " + name + " is not the serialize/escape/if-empty chain"
			return
		}
		// The unfused pipeline evaluates a guarded value twice (guard, then
		// content). Once is the same only if evaluation charges nothing and
		// calls nothing outside the evaluator (a plain column read is).
		if c.guarded && c.srcCol == "" && !pureExpr(c.value) {
			sp.unfused = "guarded value of " + name + " holds a nested query or data service call"
			return
		}
	}
	prog.fp = flwors[f]
	sp.prog = prog
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
// delimiter, then if-empty(xml-escape(serialize-atomic(fn:data($tokenVar/
// name))), "null literal").
func (c *rowCol) matchToken(delim, value xquery.Expr, tokenVar, name string) bool {
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
	if v, col, ok := childPath(e); !ok || v != tokenVar || col != name {
		return false
	}
	c.delim, c.null = d.Value, null.Value
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

// stream runs the row FLWOR with the program as its return clause,
// writing its rows to w; FETCH FIRST n stops w at row n.
func (p *rowProgram) stream(env *scope, w *rowWriter) error {
	if p.limit == 0 {
		return nil
	}
	w.limit = p.limit
	err := execPlannedFLWORTo(p.fp, env, p, w, nil)
	if err == errRowLimit { //nolint:errorlint // sentinel identity, never wrapped
		return nil
	}
	return err
}

// run appends one tuple's row to *buf. It charges exactly what the unfused
// pipeline charges for the row, in the same order: a cancellation check,
// the RECORD item against MaxRows, the $tokenQuery binding against
// MaxTuples, a cancellation check, then the row's tokens against MaxRows.
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
		if v, ok := t.lookupVar(c.srcVar); ok && len(v) == 1 {
			if row, ok := v[0].(*xdm.Element); ok {
				return c.appendChildText(b, row), nil
			}
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

// appendChildText is fn:data($row/srcCol) as element content: the string
// value of each child named srcCol, space-joined (adjacent atomics).
func (c *rowCol) appendChildText(b []byte, row *xdm.Element) []byte {
	n := 0
	for _, ch := range row.Children {
		el, ok := ch.(*xdm.Element)
		if !ok || el.Name.Local != c.srcCol {
			continue
		}
		if n > 0 {
			b = append(b, ' ')
		}
		n++
		b = xdm.AppendEscapedText(b, el.StringValue())
	}
	if n == 0 && c.guarded {
		b = append(b, c.null...)
	}
	return b
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
		case *xdm.Element:
			sb.WriteString(n.StringValue())
			prevAtomic = false
		case *xdm.Text:
			sb.WriteString(n.Value)
			prevAtomic = false
		case *xdm.Document:
			sb.WriteString(n.StringValue())
			prevAtomic = false
		}
	}
	return sb.String()
}
