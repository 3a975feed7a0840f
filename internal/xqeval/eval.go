package xqeval

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// evalExpr evaluates any expression to a sequence.
func evalExpr(e xquery.Expr, env *scope) (xdm.Sequence, error) {
	if err := env.step(); err != nil {
		return nil, err
	}
	switch e := e.(type) {
	case *xquery.StringLit:
		return xdm.SequenceOf(xdm.String(e.Value)), nil
	case *xquery.NumberLit:
		return evalNumberLit(e)
	case *xquery.EmptySeq:
		return nil, nil
	case *xquery.Var:
		v, ok := env.lookupVar(e.Name)
		if !ok {
			return nil, dynErr("unbound variable $%s", e.Name)
		}
		return v, nil
	case *xquery.ContextItem:
		if env.ctx == nil {
			return nil, dynErr("context item is undefined")
		}
		return xdm.SequenceOf(env.ctx), nil
	case *xquery.RelPath:
		if env.ctx == nil {
			return nil, dynErr("relative path with undefined context item")
		}
		return evalSteps(xdm.SequenceOf(env.ctx), e.Steps, env)
	case *xquery.FuncCall:
		return evalFuncCall(e, env)
	case *xquery.Path:
		base, err := evalExpr(e.Base, env)
		if err != nil {
			return nil, err
		}
		return evalSteps(base, e.Steps, env)
	case *xquery.Filter:
		return evalFilterExpr(e, env)
	case *xquery.Binary:
		return evalBinary(e, env)
	case *xquery.Unary:
		return evalUnary(e, env)
	case *xquery.If:
		cond, err := evalExpr(e.Cond, env)
		if err != nil {
			return nil, err
		}
		b, err := xdm.EffectiveBool(cond)
		if err != nil {
			return nil, dynErr("%v", err)
		}
		if b {
			return evalExpr(e.Then, env)
		}
		return evalExpr(e.Else, env)
	case *xquery.Cast:
		return evalCast(e, env)
	case *xquery.Seq:
		var out xdm.Sequence
		for _, it := range e.Items {
			v, err := evalExpr(it, env)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *xquery.Quantified:
		return evalQuantified(e, env)
	case *xquery.FLWOR:
		return evalFLWOR(e, env)
	case *xquery.ElementCtor:
		el, err := constructElement(e, env)
		if err != nil {
			return nil, err
		}
		return xdm.SequenceOf(el), nil
	default:
		return nil, dynErr("unsupported expression %T", e)
	}
}

func evalNumberLit(e *xquery.NumberLit) (xdm.Sequence, error) {
	text := e.Text
	var a xdm.Atomic
	var err error
	switch {
	case strings.ContainsAny(text, "eE"):
		a, err = xdm.ParseAtomic(text, xdm.TypeDouble)
	case strings.Contains(text, "."):
		a, err = xdm.ParseAtomic(text, xdm.TypeDecimal)
	default:
		a, err = xdm.ParseAtomic(text, xdm.TypeInteger)
	}
	if err != nil {
		return nil, dynErr("bad numeric literal %q: %v", text, err)
	}
	return xdm.SequenceOf(a), nil
}

// evalFilterExpr evaluates base[predicates]: as the probe FLWOR the planner
// made of it (probeFilter), or item by item.
func evalFilterExpr(e *xquery.Filter, env *scope) (xdm.Sequence, error) {
	if env.st.plan != nil {
		if fp, ok := env.st.plan.flwors[e]; ok {
			return execFilter(fp, env)
		}
	}
	base, err := evalExpr(e.Base, env)
	if err != nil {
		return nil, err
	}
	return applyPredicates(base, e.Predicates, env)
}

// evalSteps applies child-axis steps with predicates to every node in base,
// in document order (per-item order here).
func evalSteps(base xdm.Sequence, steps []xquery.PathStep, env *scope) (xdm.Sequence, error) {
	cur := base
	for _, step := range steps {
		var next xdm.Sequence
		for _, it := range cur {
			switch n := it.(type) {
			case *xdm.Element, *xdm.Record:
				next = xdm.AppendChildren(next, n.(xdm.Node), step.Name)
			case *xdm.Document:
				if root := n.Root(); root != nil && (step.Name == "*" || root.Name.Local == step.Name) {
					next = append(next, root)
				}
			default:
				return nil, dynErr("path step %s applied to %s item", step.Name, it.Kind())
			}
		}
		var err error
		next, err = applyPredicates(next, step.Predicates, env)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// applyPredicates filters a sequence through each predicate in turn. A
// predicate evaluating to a single number selects by position (1-based);
// anything else filters by effective boolean value with the candidate item
// as context.
func applyPredicates(seq xdm.Sequence, preds []xquery.Expr, env *scope) (xdm.Sequence, error) {
	for _, pred := range preds {
		var kept xdm.Sequence
		for i, it := range seq {
			v, err := evalExpr(pred, env.withContext(it))
			if err != nil {
				return nil, err
			}
			if len(v) == 1 {
				if a, ok := v[0].(xdm.Atomic); ok && a.Type().Numeric() {
					pos, err := xdm.Cast(a, xdm.TypeInteger)
					if err == nil {
						if int(pos.(xdm.Integer)) == i+1 {
							kept = append(kept, it)
						}
						continue
					}
				}
			}
			b, err := xdm.EffectiveBool(v)
			if err != nil {
				return nil, dynErr("predicate: %v", err)
			}
			if b {
				kept = append(kept, it)
			}
		}
		seq = kept
	}
	return seq, nil
}

var valueCompareOps = map[string]xdm.CompareOp{
	"eq": xdm.OpEq, "ne": xdm.OpNe, "lt": xdm.OpLt,
	"le": xdm.OpLe, "gt": xdm.OpGt, "ge": xdm.OpGe,
}

var generalCompareOps = map[string]xdm.CompareOp{
	"=": xdm.OpEq, "!=": xdm.OpNe, "<": xdm.OpLt,
	"<=": xdm.OpLe, ">": xdm.OpGt, ">=": xdm.OpGe,
}

var arithOps = map[string]xdm.ArithOp{
	"+": xdm.OpAdd, "-": xdm.OpSub, "*": xdm.OpMul,
	"div": xdm.OpDiv, "mod": xdm.OpMod,
}

func evalBinary(e *xquery.Binary, env *scope) (xdm.Sequence, error) {
	switch e.Op {
	case "and":
		l, err := evalEBV(e.Left, env)
		if err != nil {
			return nil, err
		}
		if !l {
			return boolSeq(false), nil
		}
		r, err := evalEBV(e.Right, env)
		if err != nil {
			return nil, err
		}
		return boolSeq(r), nil
	case "or":
		l, err := evalEBV(e.Left, env)
		if err != nil {
			return nil, err
		}
		if l {
			return boolSeq(true), nil
		}
		r, err := evalEBV(e.Right, env)
		if err != nil {
			return nil, err
		}
		return boolSeq(r), nil
	}

	left, err := evalExpr(e.Left, env)
	if err != nil {
		return nil, err
	}
	right, err := evalExpr(e.Right, env)
	if err != nil {
		return nil, err
	}
	return applyBinary(e.Op, left, right)
}

// applyBinary applies a comparison or arithmetic operator to evaluated
// operands.
func applyBinary(opName string, left, right xdm.Sequence) (xdm.Sequence, error) {
	if op, ok := generalCompareOps[opName]; ok {
		return evalGeneralCompare(left, right, op)
	}
	if op, ok := valueCompareOps[opName]; ok {
		return evalValueCompare(left, right, op)
	}
	if op, ok := arithOps[opName]; ok {
		// Arithmetic propagates the empty sequence (SQL NULL).
		if left.Empty() || right.Empty() {
			return nil, nil
		}
		la, err := singletonAtomic(left, "arithmetic operand")
		if err != nil {
			return nil, err
		}
		ra, err := singletonAtomic(right, "arithmetic operand")
		if err != nil {
			return nil, err
		}
		res, err := xdm.Arith(la, ra, op)
		if err != nil {
			return nil, dynErr("%v", err)
		}
		return xdm.SequenceOf(res), nil
	}
	return nil, dynErr("unsupported operator %q", opName)
}

// evalGeneralCompare implements XQuery general comparison: existential
// semantics over the atomized operands; comparisons against the empty
// sequence are false (how SQL NULL predicates become "unknown" → filtered).
func evalGeneralCompare(left, right xdm.Sequence, op xdm.CompareOp) (xdm.Sequence, error) {
	la := xdm.Atomize(left)
	ra := xdm.Atomize(right)
	for _, l := range la {
		for _, r := range ra {
			ok, err := xdm.CompareAtomic(l.(xdm.Atomic), r.(xdm.Atomic), op)
			if err != nil {
				return nil, dynErr("%v", err)
			}
			if ok {
				return boolSeq(true), nil
			}
		}
	}
	return boolSeq(false), nil
}

// evalValueCompare implements value comparison: empty operands yield the
// empty sequence; singletons compare after atomization.
func evalValueCompare(left, right xdm.Sequence, op xdm.CompareOp) (xdm.Sequence, error) {
	if left.Empty() || right.Empty() {
		return nil, nil
	}
	la, err := singletonAtomic(left, "value comparison operand")
	if err != nil {
		return nil, err
	}
	ra, err := singletonAtomic(right, "value comparison operand")
	if err != nil {
		return nil, err
	}
	ok, err := xdm.CompareAtomic(la, ra, op)
	if err != nil {
		return nil, dynErr("%v", err)
	}
	return boolSeq(ok), nil
}

func singletonAtomic(s xdm.Sequence, what string) (xdm.Atomic, error) {
	atoms := xdm.Atomize(s)
	it, err := atoms.Singleton()
	if err != nil {
		return nil, dynErr("%s: %v", what, err)
	}
	a, ok := it.(xdm.Atomic)
	if !ok {
		return nil, dynErr("%s is not atomic", what)
	}
	return a, nil
}

func evalUnary(e *xquery.Unary, env *scope) (xdm.Sequence, error) {
	v, err := evalExpr(e.Operand, env)
	if err != nil {
		return nil, err
	}
	if v.Empty() {
		return nil, nil
	}
	a, err := singletonAtomic(v, "unary operand")
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "-":
		res, err := xdm.Negate(a)
		if err != nil {
			return nil, dynErr("%v", err)
		}
		return xdm.SequenceOf(res), nil
	case "+":
		return xdm.SequenceOf(a), nil
	default:
		return nil, dynErr("unsupported unary operator %q", e.Op)
	}
}

var castTargets = map[string]xdm.AtomicType{
	"xs:string":        xdm.TypeString,
	"xs:boolean":       xdm.TypeBoolean,
	"xs:integer":       xdm.TypeInteger,
	"xs:int":           xdm.TypeInteger,
	"xs:long":          xdm.TypeInteger,
	"xs:short":         xdm.TypeInteger,
	"xs:decimal":       xdm.TypeDecimal,
	"xs:double":        xdm.TypeDouble,
	"xs:float":         xdm.TypeDouble,
	"xs:date":          xdm.TypeDate,
	"xs:time":          xdm.TypeTime,
	"xs:dateTime":      xdm.TypeDateTime,
	"xs:untypedAtomic": xdm.TypeUntyped,
}

func evalCast(e *xquery.Cast, env *scope) (xdm.Sequence, error) {
	target, ok := castTargets[e.Type]
	if !ok {
		return nil, dynErr("unknown cast target %s", e.Type)
	}
	v, err := evalExpr(e.Operand, env)
	if err != nil {
		return nil, err
	}
	if v.Empty() {
		return nil, nil // cast of () is () — NULL propagation
	}
	a, err := singletonAtomic(v, "cast operand")
	if err != nil {
		return nil, err
	}
	res, err := xdm.Cast(a, target)
	if err != nil {
		return nil, dynErr("%v", err)
	}
	return xdm.SequenceOf(res), nil
}

func evalQuantified(e *xquery.Quantified, env *scope) (xdm.Sequence, error) {
	in, err := evalExpr(e.In, env)
	if err != nil {
		return nil, err
	}
	for _, it := range in {
		inner := env.bindItem(e.Var, it)
		// Quantified predicates over row elements also see the item as
		// context, so relative paths work inside `satisfies`.
		inner = inner.withContext(it)
		ok, err := evalEBV(e.Satisfies, inner)
		if err != nil {
			return nil, err
		}
		if e.Every && !ok {
			return boolSeq(false), nil
		}
		if !e.Every && ok {
			return boolSeq(true), nil
		}
	}
	return boolSeq(e.Every), nil
}

func evalEBV(e xquery.Expr, env *scope) (bool, error) {
	v, err := evalExpr(e, env)
	if err != nil {
		return false, err
	}
	return effectiveBool(v)
}

// The shared boolean results: with capacity one, an append copies them.
var trueSeq, falseSeq = xdm.Sequence{xdm.Boolean(true)}, xdm.Sequence{xdm.Boolean(false)}

// boolSeq is xdm.SequenceOf(xdm.Boolean(b)), allocated once.
func boolSeq(b bool) xdm.Sequence {
	if b {
		return trueSeq
	}
	return falseSeq
}

// effectiveBool is xdm.EffectiveBool as a dynamic error.
func effectiveBool(v xdm.Sequence) (bool, error) {
	b, err := xdm.EffectiveBool(v)
	if err != nil {
		return false, dynErr("%v", err)
	}
	return b, nil
}

// evalFLWOR runs the clause pipeline over a tuple stream of environments.
// When the active plan covers this FLWOR, the planned streaming executor
// takes over; otherwise the naive materializing pipeline below runs.
func evalFLWOR(f *xquery.FLWOR, env *scope) (xdm.Sequence, error) {
	if env.st.plan != nil {
		if fp, ok := env.st.plan.flwors[f]; ok {
			return execPlannedFLWOR(fp, env)
		}
	}
	tuples := []*scope{env}
	for _, clause := range f.Clauses {
		var err error
		tuples, err = applyClause(clause, tuples)
		if err != nil {
			return nil, err
		}
	}
	var out xdm.Sequence
	for _, t := range tuples {
		if err := t.checkCancel(); err != nil {
			return nil, err
		}
		v, err := evalExpr(f.Return, t)
		if err != nil {
			return nil, err
		}
		if err := t.countRows(len(v)); err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

func applyClause(clause xquery.Clause, tuples []*scope) ([]*scope, error) {
	switch c := clause.(type) {
	case *xquery.For:
		var next []*scope
		for _, t := range tuples {
			if err := t.checkCancel(); err != nil {
				return nil, err
			}
			seq, err := evalExpr(c.In, t)
			if err != nil {
				return nil, err
			}
			for i, it := range seq {
				if err := t.countTuple(); err != nil {
					return nil, err
				}
				nt := t.bindItem(c.Var, it)
				if c.At != "" {
					nt = nt.bindItem(c.At, xdm.Integer(i+1))
				}
				next = append(next, nt)
			}
		}
		return next, nil

	case *xquery.Let:
		next := make([]*scope, len(tuples))
		for i, t := range tuples {
			v, err := evalExpr(c.Expr, t)
			if err != nil {
				return nil, err
			}
			next[i] = t.bind(c.Var, v)
		}
		return next, nil

	case *xquery.Where:
		var next []*scope
		for _, t := range tuples {
			ok, err := evalEBV(c.Cond, t)
			if err != nil {
				return nil, err
			}
			if ok {
				next = append(next, t)
			}
		}
		return next, nil

	case *xquery.GroupBy:
		return applyGroupBy(c, tuples)

	case *xquery.OrderByClause:
		return applyOrderBy(c, tuples)

	default:
		return nil, dynErr("unsupported FLWOR clause %T", clause)
	}
}

// applyGroupBy implements the BEA group-by extension: tuples are
// partitioned by their key values; each output tuple binds the key
// variables to the group's key values and the partition variable to the
// concatenation of the grouped variable's values across the group's
// members. Groups appear in first-encounter order.
func applyGroupBy(c *xquery.GroupBy, tuples []*scope) ([]*scope, error) {
	type group struct {
		first     *scope
		keyValues []xdm.Sequence
		partition xdm.Sequence
	}
	var order []string
	groups := map[string]*group{}
	for _, t := range tuples {
		if err := t.checkCancel(); err != nil {
			return nil, err
		}
		keyValues := make([]xdm.Sequence, len(c.Keys))
		var keyBuilder strings.Builder
		for i, k := range c.Keys {
			v, err := evalExpr(k.Expr, t)
			if err != nil {
				return nil, err
			}
			keyValues[i] = xdm.Atomize(v)
			// Key for map lookup: type-insensitive lexical form with
			// NULL (empty) distinguished. Each item is length-prefixed so
			// the keys ("AB") and ("A","B") cannot collide.
			if keyValues[i].Empty() {
				keyBuilder.WriteString("\x00N")
			} else {
				keyBuilder.WriteString("\x00V")
				for _, item := range keyValues[i] {
					lex := item.(xdm.Atomic).Lexical()
					keyBuilder.WriteString(strconv.Itoa(len(lex)))
					keyBuilder.WriteByte('\x00')
					keyBuilder.WriteString(lex)
				}
			}
		}
		key := keyBuilder.String()
		g, ok := groups[key]
		if !ok {
			g = &group{first: t, keyValues: keyValues}
			groups[key] = g
			order = append(order, key)
		}
		member, ok := t.lookupVar(c.InVar)
		if !ok {
			return nil, dynErr("group by: unbound variable $%s", c.InVar)
		}
		g.partition = append(g.partition, member...)
	}
	next := make([]*scope, 0, len(order))
	for _, key := range order {
		g := groups[key]
		nt := g.first
		for i, k := range c.Keys {
			nt = nt.bind(k.Var, g.keyValues[i])
		}
		nt = nt.bind(c.PartitionVar, g.partition)
		next = append(next, nt)
	}
	return next, nil
}

// applyOrderBy stable-sorts tuples by the order specs. The empty sequence
// sorts least unless EmptyGreatest is set.
func applyOrderBy(c *xquery.OrderByClause, tuples []*scope) ([]*scope, error) {
	keys := make([][]xdm.Sequence, len(tuples))
	for i, t := range tuples {
		if err := t.checkCancel(); err != nil {
			return nil, err
		}
		keys[i] = make([]xdm.Sequence, len(c.Specs))
		for j, s := range c.Specs {
			v, err := evalExpr(s.Expr, t)
			if err != nil {
				return nil, err
			}
			keys[i][j] = xdm.Atomize(v)
		}
	}
	idx := make([]int, len(tuples))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		for j, s := range c.Specs {
			cmp, err := compareOrderKeys(keys[idx[a]][j], keys[idx[b]][j], s.EmptyGreatest)
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if cmp != 0 {
				if s.Descending {
					return cmp > 0
				}
				return cmp < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	next := make([]*scope, len(tuples))
	for i, j := range idx {
		next[i] = tuples[j]
	}
	return next, nil
}

func compareOrderKeys(a, b xdm.Sequence, emptyGreatest bool) (int, error) {
	ae, be := a.Empty(), b.Empty()
	switch {
	case ae && be:
		return 0, nil
	case ae:
		if emptyGreatest {
			return 1, nil
		}
		return -1, nil
	case be:
		if emptyGreatest {
			return -1, nil
		}
		return 1, nil
	}
	av, aok := a[0].(xdm.Atomic)
	bv, bok := b[0].(xdm.Atomic)
	if !aok || !bok {
		return 0, dynErr("order by key is not atomic")
	}
	cmp, err := xdm.OrderAtomic(av, bv)
	if err != nil {
		// Mixed-type keys order by lexical form rather than failing the
		// whole query, matching lenient engine behavior.
		return strings.Compare(av.Lexical(), bv.Lexical()), nil
	}
	return cmp, nil
}

// constructElement builds an element from a constructor: nested
// constructors become child elements, text content becomes text nodes, and
// enclosed expressions contribute their result sequences (nodes copied,
// atomics space-joined into text, per XQuery content construction).
func constructElement(e *xquery.ElementCtor, env *scope) (xdm.Node, error) {
	if env.st.plan != nil {
		if k, ok := env.st.plan.records[e]; ok {
			if el, handled, err := k.build(env); handled {
				return el, err
			}
		}
	}
	el := &xdm.Element{Name: xdm.QName{Local: e.Name}}
	for _, c := range e.Content {
		switch c := c.(type) {
		case *xquery.TextContent:
			el.AddText(c.Text)
		case *xquery.ElementCtor:
			child, err := constructElement(c, env)
			if err != nil {
				return nil, err
			}
			el.AddChild(child)
		case *xquery.Enclosed:
			v, err := evalExpr(c.Expr, env)
			if err != nil {
				return nil, err
			}
			appendContent(el, v)
		}
	}
	return el, nil
}

func appendContent(el *xdm.Element, seq xdm.Sequence) {
	prevAtomic := false
	for _, it := range seq {
		switch v := it.(type) {
		case *xdm.Element, *xdm.Record:
			el.AddChild(v.(xdm.Node))
			prevAtomic = false
		case *xdm.Text:
			el.AddChild(&xdm.Text{Value: v.Value})
			prevAtomic = false
		case *xdm.Document:
			for _, c := range v.Children {
				el.AddChild(c)
			}
			prevAtomic = false
		case xdm.Atomic:
			text := v.Lexical()
			if prevAtomic {
				text = " " + text
			}
			el.AddText(text)
			prevAtomic = true
		}
	}
}
