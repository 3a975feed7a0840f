package xqeval

import (
	"context"
	"math"
	"strings"
	"time"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// evalFuncCall dispatches a function call: xs:* constructor functions,
// data service functions resolved through schema-import prefixes, then the
// fn:/fn-bea: builtin library.
func evalFuncCall(e *xquery.FuncCall, env *scope) (xdm.Sequence, error) {
	prefix, local := xquery.FuncName(e.Name)

	if prefix == "xs" {
		if _, ok := castTargets[e.Name]; ok {
			if len(e.Args) != 1 {
				return nil, dynErr("%s expects 1 argument", e.Name)
			}
			return evalCast(&xquery.Cast{Type: e.Name, Operand: e.Args[0]}, env)
		}
	}

	if ns, ok := env.namespace(prefix); ok {
		fn, found := env.st.engine.lookup(ns, local)
		if !found {
			return nil, dynErr("no data service function %s in namespace %s", local, ns)
		}
		args := make([]xdm.Sequence, len(e.Args))
		for i, a := range e.Args {
			v, err := evalExpr(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		ctx := env.st.goCtx
		if ctx == nil {
			ctx = context.Background()
		}
		return fn(ctx, args)
	}

	// FETCH FIRST's fn:subsequence(rows, 1, n) spelling short-circuits in
	// every evaluation mode — planned and naive alike — so the limit stops
	// pulling its operand instead of truncating a finished sequence.
	// Both differential-oracle sides take this path, keeping them aligned.
	if limit, inner, ok := subsequenceLimit(e); ok {
		var ps pools
		defer ps.join()
		return drain(limited(rowsOf(inner, env, &ps), limit))
	}

	if env.st.plan != nil && e.Name == "fn:data" && len(e.Args) == 1 {
		if out, ok, err := columnData(e.Args[0], env); ok {
			return out, err
		}
	}
	builtin, ok := builtins[e.Name]
	if !ok {
		return nil, dynErr("unknown function %s", e.Name)
	}
	if builtin.minArgs >= 0 && len(e.Args) < builtin.minArgs {
		return nil, dynErr("%s expects at least %d argument(s), got %d", e.Name, builtin.minArgs, len(e.Args))
	}
	if builtin.maxArgs >= 0 && len(e.Args) > builtin.maxArgs {
		return nil, dynErr("%s expects at most %d argument(s), got %d", e.Name, builtin.maxArgs, len(e.Args))
	}
	args := make([]xdm.Sequence, len(e.Args))
	for i, a := range e.Args {
		v, err := evalExpr(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return builtin.impl(args)
}

// columnData is fn:data($v/NAME) on the planned path when $v holds only
// rows (a row, or a group partition): the texts, untyped, with no column
// element built, charging the path's step and the variable's.
func columnData(arg xquery.Expr, env *scope) (xdm.Sequence, bool, error) {
	v, col, ok := childPath(arg)
	if !ok {
		return nil, false, nil
	}
	rows, ok := env.lookupVar(v)
	if !ok {
		return nil, false, nil
	}
	var out xdm.Sequence
	for _, it := range rows {
		n, isNode := it.(xdm.Node)
		if !isNode || xdm.LocalName(n) == "" {
			return nil, false, nil
		}
		for text, i := xdm.NextColumn(n, col, 0); i >= 0; text, i = xdm.NextColumn(n, col, i) {
			out = append(out, xdm.Untyped(text))
		}
	}
	return out, true, columnSteps(env, env.depth)
}

type builtinFunc struct {
	minArgs int
	maxArgs int // -1 = unbounded
	impl    func(args []xdm.Sequence) (xdm.Sequence, error)
}

// builtins is the function library the generated queries use: the fn:
// subset of XQuery 1.0 Functions & Operators, plus the fn-bea: extension
// namespace the paper's result-handling wrapper and SQL function mapping
// rely on. The fn-bea: set is reconstructed from the paper's usage
// (if-empty, xml-escape, serialize-atomic) and extended where SQL-92
// semantics diverge from fn: semantics (sql-sum vs fn:sum over empty, SQL
// LIKE patterns, row-set operations with bag semantics).
var builtins map[string]builtinFunc

func init() {
	builtins = map[string]builtinFunc{
		// --- accessors and cardinality ---
		"fn:data":   {1, 1, fnData},
		"fn:string": {1, 1, fnString},
		"fn:empty":  {1, 1, fnEmpty},
		"fn:exists": {1, 1, fnExists},
		"fn:count":  {1, 1, fnCount},
		"fn:not":    {1, 1, fnNot},
		"fn:boolean": {1, 1, func(args []xdm.Sequence) (xdm.Sequence, error) {
			b, err := xdm.EffectiveBool(args[0])
			if err != nil {
				return nil, dynErr("%v", err)
			}
			return boolSeq(b), nil
		}},
		"fn:true":  {0, 0, func([]xdm.Sequence) (xdm.Sequence, error) { return boolSeq(true), nil }},
		"fn:false": {0, 0, func([]xdm.Sequence) (xdm.Sequence, error) { return boolSeq(false), nil }},

		// --- aggregates (XQuery semantics) ---
		"fn:sum":             {1, 1, fnSum},
		"fn:avg":             {1, 1, fnAvg},
		"fn:min":             {1, 1, fnMin},
		"fn:max":             {1, 1, fnMax},
		"fn:distinct-values": {1, 1, fnDistinctValues},
		"fn:subsequence":     {2, 3, fnSubsequence},
		"fn:reverse": {1, 1, func(args []xdm.Sequence) (xdm.Sequence, error) {
			out := make(xdm.Sequence, len(args[0]))
			for i, it := range args[0] {
				out[len(out)-1-i] = it
			}
			return out, nil
		}},

		// --- strings ---
		"fn:concat":          {2, -1, fnConcat},
		"fn:string-join":     {2, 2, fnStringJoin},
		"fn:upper-case":      {1, 1, stringFunc(strings.ToUpper)},
		"fn:lower-case":      {1, 1, stringFunc(strings.ToLower)},
		"fn:string-length":   {1, 1, fnStringLength},
		"fn:substring":       {2, 3, fnSubstring},
		"fn:contains":        {2, 2, fnContains},
		"fn:starts-with":     {2, 2, fnStartsWith},
		"fn:ends-with":       {2, 2, fnEndsWith},
		"fn:normalize-space": {1, 1, stringFunc(func(s string) string { return strings.Join(strings.Fields(s), " ") })},

		// --- numerics ---
		"fn:abs":     {1, 1, numericFunc(math.Abs)},
		"fn:floor":   {1, 1, numericFunc(math.Floor)},
		"fn:ceiling": {1, 1, numericFunc(math.Ceil)},
		"fn:round":   {1, 1, numericFunc(func(f float64) float64 { return math.Floor(f + 0.5) })},

		// --- dates ---
		"fn:year-from-date":        {1, 1, temporalPart("year")},
		"fn:month-from-date":       {1, 1, temporalPart("month")},
		"fn:day-from-date":         {1, 1, temporalPart("day")},
		"fn:hours-from-time":       {1, 1, temporalPart("hours")},
		"fn:minutes-from-time":     {1, 1, temporalPart("minutes")},
		"fn:seconds-from-time":     {1, 1, temporalPart("seconds")},
		"fn:year-from-dateTime":    {1, 1, temporalPart("year")},
		"fn:month-from-dateTime":   {1, 1, temporalPart("month")},
		"fn:day-from-dateTime":     {1, 1, temporalPart("day")},
		"fn:hours-from-dateTime":   {1, 1, temporalPart("hours")},
		"fn:minutes-from-dateTime": {1, 1, temporalPart("minutes")},
		"fn:seconds-from-dateTime": {1, 1, temporalPart("seconds")},
		"fn:current-date": {0, 0, func([]xdm.Sequence) (xdm.Sequence, error) {
			now := time.Now().UTC()
			return xdm.SequenceOf(xdm.Date{T: time.Date(now.Year(), now.Month(), now.Day(), 0, 0, 0, 0, time.UTC)}), nil
		}},
		"fn:current-time": {0, 0, func([]xdm.Sequence) (xdm.Sequence, error) {
			return xdm.SequenceOf(xdm.Time{T: time.Now().UTC()}), nil
		}},
		"fn:current-dateTime": {0, 0, func([]xdm.Sequence) (xdm.Sequence, error) {
			return xdm.SequenceOf(xdm.DateTime{T: time.Now().UTC()}), nil
		}},

		// --- fn-bea: extensions ---
		"fn-bea:if-empty":         {2, 2, beaIfEmpty},
		"fn-bea:xml-escape":       {1, 1, stringFunc(xdm.EscapeText)},
		"fn-bea:serialize-atomic": {1, 1, beaSerializeAtomic},
		"fn-bea:sql-like":         {2, 3, beaSQLLike},
		"fn-bea:sql-sum":          {1, 1, beaSQLAgg(fnSum)},
		"fn-bea:sql-avg":          {1, 1, beaSQLAgg(fnAvg)},
		"fn-bea:sql-min":          {1, 1, beaSQLAgg(fnMin)},
		"fn-bea:sql-max":          {1, 1, beaSQLAgg(fnMax)},
		"fn-bea:trim":             {1, 2, beaTrim(strings.Trim, strings.TrimSpace)},
		"fn-bea:trim-left":        {1, 2, beaTrim(strings.TrimLeft, func(s string) string { return strings.TrimLeft(s, " \t\r\n") })},
		"fn-bea:trim-right":       {1, 2, beaTrim(strings.TrimRight, func(s string) string { return strings.TrimRight(s, " \t\r\n") })},
		"fn-bea:distinct-rows":    {1, 1, beaDistinctRows},
		"fn-bea:rows-except":      {3, 3, beaRowsSetOp(false)},
		"fn-bea:rows-intersect":   {3, 3, beaRowsSetOp(true)},
		"fn-bea:position":         {2, 2, beaPosition},
		"fn-bea:repeat":           {2, 2, beaRepeat},
	}
}

func fnData(args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.Atomize(args[0]), nil
}

func fnString(args []xdm.Sequence) (xdm.Sequence, error) {
	if args[0].Empty() {
		return xdm.SequenceOf(xdm.String("")), nil
	}
	it, err := args[0].Singleton()
	if err != nil {
		return nil, dynErr("fn:string: %v", err)
	}
	return xdm.SequenceOf(xdm.String(xdm.StringValue(it))), nil
}

func fnEmpty(args []xdm.Sequence) (xdm.Sequence, error) {
	return boolSeq(args[0].Empty()), nil
}

func fnExists(args []xdm.Sequence) (xdm.Sequence, error) {
	return boolSeq(!args[0].Empty()), nil
}

func fnCount(args []xdm.Sequence) (xdm.Sequence, error) {
	return xdm.SequenceOf(xdm.Integer(len(args[0]))), nil
}

func fnNot(args []xdm.Sequence) (xdm.Sequence, error) {
	b, err := xdm.EffectiveBool(args[0])
	if err != nil {
		return nil, dynErr("fn:not: %v", err)
	}
	return boolSeq(!b), nil
}

// numericAtoms atomizes a sequence and casts untyped members to double,
// the XQuery aggregate preparation step.
func numericAtoms(s xdm.Sequence) ([]xdm.Atomic, error) {
	atoms := xdm.Atomize(s)
	out := make([]xdm.Atomic, 0, len(atoms))
	for _, it := range atoms {
		a := it.(xdm.Atomic)
		if a.Type() == xdm.TypeUntyped {
			c, err := xdm.Cast(a, xdm.TypeDouble)
			if err != nil {
				return nil, dynErr("aggregate over non-numeric value %q", a.Lexical())
			}
			a = c
		}
		out = append(out, a)
	}
	return out, nil
}

func fnSum(args []xdm.Sequence) (xdm.Sequence, error) {
	atoms, err := numericAtoms(args[0])
	if err != nil {
		return nil, err
	}
	if len(atoms) == 0 {
		return xdm.SequenceOf(xdm.Integer(0)), nil // fn:sum(()) = 0
	}
	acc := atoms[0]
	for _, a := range atoms[1:] {
		acc, err = xdm.Arith(acc, a, xdm.OpAdd)
		if err != nil {
			return nil, dynErr("fn:sum: %v", err)
		}
	}
	return xdm.SequenceOf(acc), nil
}

func fnAvg(args []xdm.Sequence) (xdm.Sequence, error) {
	atoms, err := numericAtoms(args[0])
	if err != nil {
		return nil, err
	}
	if len(atoms) == 0 {
		return nil, nil // fn:avg(()) = ()
	}
	sum, err := fnSum(args)
	if err != nil {
		return nil, err
	}
	res, err := xdm.Arith(sum[0].(xdm.Atomic), xdm.Integer(int64(len(atoms))), xdm.OpDiv)
	if err != nil {
		return nil, dynErr("fn:avg: %v", err)
	}
	return xdm.SequenceOf(res), nil
}

func fnMin(args []xdm.Sequence) (xdm.Sequence, error) { return extreme(args[0], true) }
func fnMax(args []xdm.Sequence) (xdm.Sequence, error) { return extreme(args[0], false) }

func extreme(s xdm.Sequence, min bool) (xdm.Sequence, error) {
	atoms := xdm.Atomize(s)
	if len(atoms) == 0 {
		return nil, nil
	}
	// Per F&O, fn:min/fn:max treat xs:untypedAtomic inputs as xs:double.
	// When an untyped value is non-numeric, fall back to string comparison
	// for the whole sequence (lenient engine behavior for schemaless
	// string columns).
	vals := make([]xdm.Atomic, len(atoms))
	numeric := true
	for i, it := range atoms {
		a := it.(xdm.Atomic)
		vals[i] = a
		if a.Type() == xdm.TypeUntyped {
			if _, err := xdm.Cast(a, xdm.TypeDouble); err != nil {
				numeric = false
			}
		}
	}
	if numeric {
		for i, a := range vals {
			if a.Type() == xdm.TypeUntyped {
				c, err := xdm.Cast(a, xdm.TypeDouble)
				if err != nil {
					return nil, dynErr("min/max: %v", err)
				}
				vals[i] = c
			}
		}
	}
	best := vals[0]
	for _, a := range vals[1:] {
		cmp, err := xdm.OrderAtomic(a, best)
		if err != nil {
			return nil, dynErr("min/max: %v", err)
		}
		if (min && cmp < 0) || (!min && cmp > 0) {
			best = a
		}
	}
	return xdm.SequenceOf(best), nil
}

// fnSubsequence implements fn:subsequence with the rounding rules of F&O:
// items at positions p with round(start) <= p < round(start)+round(length).
func fnSubsequence(args []xdm.Sequence) (xdm.Sequence, error) {
	src := args[0]
	start, err := seqFloat(args[1], "fn:subsequence start")
	if err != nil {
		return nil, err
	}
	length := math.Inf(1)
	if len(args) == 3 {
		length, err = seqFloat(args[2], "fn:subsequence length")
		if err != nil {
			return nil, err
		}
	}
	lo := math.Floor(start + 0.5)
	hi := lo + math.Floor(length+0.5)
	var out xdm.Sequence
	for i, it := range src {
		p := float64(i + 1)
		if p >= lo && p < hi {
			out = append(out, it)
		}
	}
	return out, nil
}

func fnDistinctValues(args []xdm.Sequence) (xdm.Sequence, error) {
	atoms := xdm.Atomize(args[0])
	var out xdm.Sequence
	seen := map[string]bool{}
	for _, it := range atoms {
		a := it.(xdm.Atomic)
		// Distinctness by promoted value: use a normalized key of type
		// class + canonical lexical so 1 and 1.0 collapse.
		key := distinctKey(a)
		if !seen[key] {
			seen[key] = true
			out = append(out, a)
		}
	}
	return out, nil
}

func distinctKey(a xdm.Atomic) string {
	switch a.Type() {
	case xdm.TypeInteger, xdm.TypeDecimal, xdm.TypeDouble:
		d, err := xdm.Cast(a, xdm.TypeDouble)
		if err != nil {
			return "n:" + a.Lexical()
		}
		return "n:" + d.Lexical()
	case xdm.TypeString, xdm.TypeUntyped:
		return "s:" + a.Lexical()
	default:
		return a.Type().String() + ":" + a.Lexical()
	}
}

func fnConcat(args []xdm.Sequence) (xdm.Sequence, error) {
	var b strings.Builder
	for _, a := range args {
		if a.Empty() {
			continue // fn:concat treats () as ""
		}
		it, err := a.Singleton()
		if err != nil {
			return nil, dynErr("fn:concat: %v", err)
		}
		b.WriteString(xdm.StringValue(it))
	}
	return xdm.SequenceOf(xdm.String(b.String())), nil
}

func fnStringJoin(args []xdm.Sequence) (xdm.Sequence, error) {
	sep := ""
	if !args[1].Empty() {
		it, err := args[1].Singleton()
		if err != nil {
			return nil, dynErr("fn:string-join separator: %v", err)
		}
		sep = xdm.StringValue(it)
	}
	parts := make([]string, len(args[0]))
	for i, it := range args[0] {
		parts[i] = xdm.StringValue(it)
	}
	return xdm.SequenceOf(xdm.String(strings.Join(parts, sep))), nil
}

// stringFunc lifts a string transformation into a builtin with ()→()
// propagation.
func stringFunc(f func(string) string) func([]xdm.Sequence) (xdm.Sequence, error) {
	return func(args []xdm.Sequence) (xdm.Sequence, error) {
		if args[0].Empty() {
			return nil, nil
		}
		it, err := args[0].Singleton()
		if err != nil {
			return nil, dynErr("string function: %v", err)
		}
		return xdm.SequenceOf(xdm.String(f(xdm.StringValue(it)))), nil
	}
}

func fnStringLength(args []xdm.Sequence) (xdm.Sequence, error) {
	if args[0].Empty() {
		return nil, nil
	}
	it, err := args[0].Singleton()
	if err != nil {
		return nil, dynErr("fn:string-length: %v", err)
	}
	return xdm.SequenceOf(xdm.Integer(len([]rune(xdm.StringValue(it))))), nil
}

func fnSubstring(args []xdm.Sequence) (xdm.Sequence, error) {
	if args[0].Empty() {
		return nil, nil
	}
	src := []rune(seqString(args[0]))
	start, err := seqFloat(args[1], "fn:substring start")
	if err != nil {
		return nil, err
	}
	length := math.Inf(1)
	if len(args) == 3 {
		length, err = seqFloat(args[2], "fn:substring length")
		if err != nil {
			return nil, err
		}
	}
	// XQuery substring: 1-based, rounds, position p kept iff
	// round(start) <= p < round(start)+round(length).
	lo := math.Floor(start + 0.5)
	hi := lo + math.Floor(length+0.5)
	var b strings.Builder
	for i, r := range src {
		p := float64(i + 1)
		if p >= lo && p < hi {
			b.WriteRune(r)
		}
	}
	return xdm.SequenceOf(xdm.String(b.String())), nil
}

func fnContains(args []xdm.Sequence) (xdm.Sequence, error) {
	return boolSeq(strings.Contains(seqString(args[0]), seqString(args[1]))), nil
}

func fnStartsWith(args []xdm.Sequence) (xdm.Sequence, error) {
	return boolSeq(strings.HasPrefix(seqString(args[0]), seqString(args[1]))), nil
}

func fnEndsWith(args []xdm.Sequence) (xdm.Sequence, error) {
	return boolSeq(strings.HasSuffix(seqString(args[0]), seqString(args[1]))), nil
}

func numericFunc(f func(float64) float64) func([]xdm.Sequence) (xdm.Sequence, error) {
	return func(args []xdm.Sequence) (xdm.Sequence, error) {
		if args[0].Empty() {
			return nil, nil
		}
		a, err := singletonAtomicSeq(args[0], "numeric function argument")
		if err != nil {
			return nil, err
		}
		switch a.Type() {
		case xdm.TypeInteger:
			v := f(float64(a.(xdm.Integer)))
			return xdm.SequenceOf(xdm.Integer(int64(v))), nil
		case xdm.TypeDecimal:
			return xdm.SequenceOf(xdm.Decimal(f(float64(a.(xdm.Decimal))))), nil
		case xdm.TypeDouble:
			return xdm.SequenceOf(xdm.Double(f(float64(a.(xdm.Double))))), nil
		case xdm.TypeUntyped:
			c, err := xdm.Cast(a, xdm.TypeDouble)
			if err != nil {
				return nil, dynErr("%v", err)
			}
			return xdm.SequenceOf(xdm.Double(f(float64(c.(xdm.Double))))), nil
		default:
			return nil, dynErr("numeric function over %s", a.Type())
		}
	}
}

func temporalPart(part string) func([]xdm.Sequence) (xdm.Sequence, error) {
	return func(args []xdm.Sequence) (xdm.Sequence, error) {
		if args[0].Empty() {
			return nil, nil
		}
		a, err := singletonAtomicSeq(args[0], "temporal function argument")
		if err != nil {
			return nil, err
		}
		var tv time.Time
		switch v := a.(type) {
		case xdm.Date:
			tv = v.T
		case xdm.Time:
			tv = v.T
		case xdm.DateTime:
			tv = v.T
		case xdm.Untyped, xdm.String:
			if dt, err := xdm.Cast(a, xdm.TypeDateTime); err == nil {
				tv = dt.(xdm.DateTime).T
			} else if d, err := xdm.Cast(a, xdm.TypeDate); err == nil {
				tv = d.(xdm.Date).T
			} else if tm, err := xdm.Cast(a, xdm.TypeTime); err == nil {
				tv = tm.(xdm.Time).T
			} else {
				return nil, dynErr("cannot extract %s from %q", part, a.Lexical())
			}
		default:
			return nil, dynErr("cannot extract %s from %s", part, a.Type())
		}
		var n int
		switch part {
		case "year":
			n = tv.Year()
		case "month":
			n = int(tv.Month())
		case "day":
			n = tv.Day()
		case "hours":
			n = tv.Hour()
		case "minutes":
			n = tv.Minute()
		case "seconds":
			n = tv.Second()
		}
		return xdm.SequenceOf(xdm.Integer(n)), nil
	}
}

func beaIfEmpty(args []xdm.Sequence) (xdm.Sequence, error) {
	if args[0].Empty() {
		return args[1], nil
	}
	return args[0], nil
}

func beaSerializeAtomic(args []xdm.Sequence) (xdm.Sequence, error) {
	if args[0].Empty() {
		return nil, nil
	}
	a, err := singletonAtomicSeq(args[0], "fn-bea:serialize-atomic argument")
	if err != nil {
		return nil, err
	}
	return xdm.SequenceOf(xdm.String(a.Lexical())), nil
}

// beaSQLLike implements SQL-92 LIKE: % matches any run, _ any single
// character, with an optional single-character escape.
func beaSQLLike(args []xdm.Sequence) (xdm.Sequence, error) {
	if args[0].Empty() || args[1].Empty() {
		return nil, nil // NULL LIKE … is unknown
	}
	s := seqString(args[0])
	pattern := seqString(args[1])
	escape := ""
	if len(args) == 3 && !args[2].Empty() {
		escape = seqString(args[2])
		if len([]rune(escape)) != 1 {
			return nil, dynErr("LIKE escape must be a single character, got %q", escape)
		}
	}
	ok, err := likeMatch(s, pattern, escape)
	if err != nil {
		return nil, err
	}
	return boolSeq(ok), nil
}

// likeMatch matches SQL LIKE patterns via backtracking on %.
func likeMatch(s, pattern, escape string) (bool, error) {
	type token struct {
		kind byte // 'c' literal char, '_' any one, '%' any run
		ch   rune
	}
	var toks []token
	esc := rune(0)
	if escape != "" {
		esc = []rune(escape)[0]
	}
	runes := []rune(pattern)
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		switch {
		case esc != 0 && r == esc:
			if i+1 >= len(runes) {
				return false, dynErr("LIKE pattern ends with escape character")
			}
			i++
			toks = append(toks, token{kind: 'c', ch: runes[i]})
		case r == '%':
			toks = append(toks, token{kind: '%'})
		case r == '_':
			toks = append(toks, token{kind: '_'})
		default:
			toks = append(toks, token{kind: 'c', ch: r})
		}
	}
	str := []rune(s)
	var match func(si, ti int) bool
	match = func(si, ti int) bool {
		for ti < len(toks) {
			t := toks[ti]
			switch t.kind {
			case '%':
				for k := si; k <= len(str); k++ {
					if match(k, ti+1) {
						return true
					}
				}
				return false
			case '_':
				if si >= len(str) {
					return false
				}
				si++
				ti++
			default:
				if si >= len(str) || str[si] != t.ch {
					return false
				}
				si++
				ti++
			}
		}
		return si == len(str)
	}
	return match(0, 0), nil
}

// beaSQLAgg wraps an fn: aggregate with SQL empty-input semantics:
// aggregates over zero (non-NULL) inputs yield NULL (the empty sequence).
func beaSQLAgg(inner func([]xdm.Sequence) (xdm.Sequence, error)) func([]xdm.Sequence) (xdm.Sequence, error) {
	return func(args []xdm.Sequence) (xdm.Sequence, error) {
		if args[0].Empty() {
			return nil, nil
		}
		return inner(args)
	}
}

func beaTrim(cut func(string, string) string, plain func(string) string) func([]xdm.Sequence) (xdm.Sequence, error) {
	return func(args []xdm.Sequence) (xdm.Sequence, error) {
		if args[0].Empty() {
			return nil, nil
		}
		s := seqString(args[0])
		if len(args) == 2 && !args[1].Empty() {
			return xdm.SequenceOf(xdm.String(cut(s, seqString(args[1])))), nil
		}
		return xdm.SequenceOf(xdm.String(plain(s))), nil
	}
}

// beaDistinctRows keeps the first occurrence of each distinct row element,
// where row identity is the (column name, value) list — the row-set
// DISTINCT/UNION primitive.
func beaDistinctRows(args []xdm.Sequence) (xdm.Sequence, error) {
	seen := map[string]bool{}
	var out xdm.Sequence
	for _, it := range args[0] {
		key, ok := rowKey(it)
		if !ok {
			return nil, dynErr("fn-bea:distinct-rows over non-element item")
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, it)
		}
	}
	return out, nil
}

// rowKey is the xdm.SortKey of a row element — an Element or a Record.
func rowKey(it xdm.Item) (string, bool) {
	if n, ok := it.(xdm.Node); ok && xdm.LocalName(n) != "" {
		return xdm.SortKey(n), true
	}
	return "", false
}

// beaRowsSetOp implements EXCEPT/INTERSECT over row elements with SQL
// semantics. The third argument is the ALL flag: with ALL, bag semantics
// (per-duplicate counting); without, set semantics over distinct rows.
func beaRowsSetOp(intersect bool) func([]xdm.Sequence) (xdm.Sequence, error) {
	return func(args []xdm.Sequence) (xdm.Sequence, error) {
		all := false
		if !args[2].Empty() {
			b, err := xdm.EffectiveBool(args[2])
			if err != nil {
				return nil, dynErr("set-op ALL flag: %v", err)
			}
			all = b
		}
		rightCount := map[string]int{}
		for _, it := range args[1] {
			key, ok := rowKey(it)
			if !ok {
				return nil, dynErr("row set operation over non-element item")
			}
			rightCount[key]++
		}
		var out xdm.Sequence
		emitted := map[string]bool{}
		for _, it := range args[0] {
			key, ok := rowKey(it)
			if !ok {
				return nil, dynErr("row set operation over non-element item")
			}
			inRight := rightCount[key] > 0
			switch {
			case all && intersect:
				if inRight {
					rightCount[key]--
					out = append(out, it)
				}
			case all && !intersect:
				if inRight {
					rightCount[key]--
				} else {
					out = append(out, it)
				}
			case intersect:
				if inRight && !emitted[key] {
					emitted[key] = true
					out = append(out, it)
				}
			default: // EXCEPT DISTINCT
				if !inRight && !emitted[key] {
					emitted[key] = true
					out = append(out, it)
				}
			}
		}
		return out, nil
	}
}

// beaPosition returns the 1-based position of needle in haystack (SQL
// POSITION), 0 when absent.
func beaPosition(args []xdm.Sequence) (xdm.Sequence, error) {
	if args[0].Empty() || args[1].Empty() {
		return nil, nil
	}
	needle := seqString(args[0])
	hay := seqString(args[1])
	if needle == "" {
		return xdm.SequenceOf(xdm.Integer(1)), nil
	}
	idx := strings.Index(hay, needle)
	if idx < 0 {
		return xdm.SequenceOf(xdm.Integer(0)), nil
	}
	return xdm.SequenceOf(xdm.Integer(len([]rune(hay[:idx])) + 1)), nil
}

// beaRepeat repeats a string n times (used by padding translations).
func beaRepeat(args []xdm.Sequence) (xdm.Sequence, error) {
	if args[0].Empty() || args[1].Empty() {
		return nil, nil
	}
	n, err := seqFloat(args[1], "fn-bea:repeat count")
	if err != nil {
		return nil, err
	}
	if n < 0 {
		n = 0
	}
	return xdm.SequenceOf(xdm.String(strings.Repeat(seqString(args[0]), int(n)))), nil
}

func seqString(s xdm.Sequence) string {
	if s.Empty() {
		return ""
	}
	return xdm.StringValue(s[0])
}

func seqFloat(s xdm.Sequence, what string) (float64, error) {
	a, err := singletonAtomicSeq(s, what)
	if err != nil {
		return 0, err
	}
	d, err := xdm.Cast(a, xdm.TypeDouble)
	if err != nil {
		return 0, dynErr("%s: %v", what, err)
	}
	return float64(d.(xdm.Double)), nil
}

func singletonAtomicSeq(s xdm.Sequence, what string) (xdm.Atomic, error) {
	atoms := xdm.Atomize(s)
	it, err := atoms.Singleton()
	if err != nil {
		return nil, dynErr("%s: %v", what, err)
	}
	return it.(xdm.Atomic), nil
}
