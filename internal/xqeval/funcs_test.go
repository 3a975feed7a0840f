package xqeval

import (
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// callF evaluates a builtin by name with pre-evaluated argument sequences.
func callF(t *testing.T, name string, args ...xdm.Sequence) xdm.Sequence {
	t.Helper()
	b, ok := builtins[name]
	if !ok {
		t.Fatalf("no builtin %s", name)
	}
	out, err := b.impl(args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func seq(items ...xdm.Item) xdm.Sequence { return xdm.SequenceOf(items...) }

func TestFnDataAndString(t *testing.T) {
	el := xdm.NewTextElement("X", "42")
	out := callF(t, "fn:data", seq(el))
	if string(out[0].(xdm.Untyped)) != "42" {
		t.Fatalf("out = %v", out)
	}
	out = callF(t, "fn:string", seq(el))
	if string(out[0].(xdm.String)) != "42" {
		t.Fatalf("out = %v", out)
	}
	out = callF(t, "fn:string", nil)
	if string(out[0].(xdm.String)) != "" {
		t.Fatalf("fn:string(()) = %v", out)
	}
}

func TestFnCardinality(t *testing.T) {
	if callF(t, "fn:empty", nil)[0].(xdm.Boolean) != true {
		t.Fatal("empty(()) should be true")
	}
	if callF(t, "fn:exists", seq(xdm.Integer(1)))[0].(xdm.Boolean) != true {
		t.Fatal("exists((1)) should be true")
	}
	if callF(t, "fn:count", seq(xdm.Integer(1), xdm.Integer(2)))[0].(xdm.Integer) != 2 {
		t.Fatal("count = 2")
	}
	if callF(t, "fn:not", seq(xdm.Boolean(false)))[0].(xdm.Boolean) != true {
		t.Fatal("not(false) should be true")
	}
}

func TestFnAggregates(t *testing.T) {
	nums := seq(xdm.Integer(1), xdm.Integer(2), xdm.Integer(3))
	if callF(t, "fn:sum", nums)[0].(xdm.Integer) != 6 {
		t.Fatal("sum")
	}
	if callF(t, "fn:sum", nil)[0].(xdm.Integer) != 0 {
		t.Fatal("fn:sum(()) should be 0 per XQuery")
	}
	avg := callF(t, "fn:avg", nums)
	if float64(avg[0].(xdm.Decimal)) != 2 {
		t.Fatalf("avg = %v", avg)
	}
	if !callF(t, "fn:avg", nil).Empty() {
		t.Fatal("fn:avg(()) should be empty")
	}
	if callF(t, "fn:min", nums)[0].(xdm.Integer) != 1 {
		t.Fatal("min")
	}
	if callF(t, "fn:max", nums)[0].(xdm.Integer) != 3 {
		t.Fatal("max")
	}
	// Untyped values promote to double.
	mixed := seq(xdm.Untyped("1.5"), xdm.Integer(2))
	if v := callF(t, "fn:sum", mixed); float64(v[0].(xdm.Double)) != 3.5 {
		t.Fatalf("sum untyped = %v", v)
	}
	// min/max over strings.
	names := seq(xdm.String("b"), xdm.String("a"), xdm.String("c"))
	if string(callF(t, "fn:min", names)[0].(xdm.String)) != "a" {
		t.Fatal("min strings")
	}
}

func TestFnSQLAggregatesNullOnEmpty(t *testing.T) {
	if !callF(t, "fn-bea:sql-sum", nil).Empty() {
		t.Fatal("sql-sum(()) should be NULL")
	}
	if !callF(t, "fn-bea:sql-max", nil).Empty() {
		t.Fatal("sql-max(()) should be NULL")
	}
	if callF(t, "fn-bea:sql-sum", seq(xdm.Integer(2), xdm.Integer(3)))[0].(xdm.Integer) != 5 {
		t.Fatal("sql-sum over values")
	}
}

func TestFnDistinctValues(t *testing.T) {
	out := callF(t, "fn:distinct-values", seq(
		xdm.Integer(1), xdm.Decimal(1.0), xdm.Integer(2), xdm.String("x"), xdm.Untyped("x")))
	if len(out) != 3 {
		t.Fatalf("distinct = %v", out)
	}
}

func TestFnStrings(t *testing.T) {
	if s := callF(t, "fn:concat", seq(xdm.String("a")), nil, seq(xdm.Integer(5))); string(s[0].(xdm.String)) != "a5" {
		t.Fatalf("concat = %v", s)
	}
	j := callF(t, "fn:string-join", seq(xdm.String("a"), xdm.String("b")), seq(xdm.String("-")))
	if string(j[0].(xdm.String)) != "a-b" {
		t.Fatalf("join = %v", j)
	}
	if string(callF(t, "fn:upper-case", seq(xdm.String("sue")))[0].(xdm.String)) != "SUE" {
		t.Fatal("upper")
	}
	if string(callF(t, "fn:lower-case", seq(xdm.String("SUE")))[0].(xdm.String)) != "sue" {
		t.Fatal("lower")
	}
	if callF(t, "fn:string-length", seq(xdm.String("héllo")))[0].(xdm.Integer) != 5 {
		t.Fatal("string-length must count runes")
	}
	if !callF(t, "fn:string-length", nil).Empty() {
		t.Fatal("string-length(()) is empty")
	}
	if callF(t, "fn:contains", seq(xdm.String("hello")), seq(xdm.String("ell")))[0].(xdm.Boolean) != true {
		t.Fatal("contains")
	}
	if callF(t, "fn:starts-with", seq(xdm.String("hello")), seq(xdm.String("he")))[0].(xdm.Boolean) != true {
		t.Fatal("starts-with")
	}
	if callF(t, "fn:ends-with", seq(xdm.String("hello")), seq(xdm.String("lo")))[0].(xdm.Boolean) != true {
		t.Fatal("ends-with")
	}
	if string(callF(t, "fn:normalize-space", seq(xdm.String("  a  b ")))[0].(xdm.String)) != "a b" {
		t.Fatal("normalize-space")
	}
}

func TestFnSubstring(t *testing.T) {
	s := seq(xdm.String("motor car"))
	if got := string(callF(t, "fn:substring", s, seq(xdm.Integer(6)))[0].(xdm.String)); got != " car" {
		t.Fatalf("substring from 6 = %q", got)
	}
	if got := string(callF(t, "fn:substring", s, seq(xdm.Integer(4)), seq(xdm.Integer(3)))[0].(xdm.String)); got != "or " {
		t.Fatalf("substring(4,3) = %q", got)
	}
	if !callF(t, "fn:substring", nil, seq(xdm.Integer(1))).Empty() {
		t.Fatal("substring of () is ()")
	}
}

func TestFnNumerics(t *testing.T) {
	if callF(t, "fn:abs", seq(xdm.Integer(-5)))[0].(xdm.Integer) != 5 {
		t.Fatal("abs")
	}
	if float64(callF(t, "fn:floor", seq(xdm.Decimal(2.7)))[0].(xdm.Decimal)) != 2 {
		t.Fatal("floor")
	}
	if float64(callF(t, "fn:ceiling", seq(xdm.Decimal(2.1)))[0].(xdm.Decimal)) != 3 {
		t.Fatal("ceiling")
	}
	if float64(callF(t, "fn:round", seq(xdm.Decimal(2.5)))[0].(xdm.Decimal)) != 3 {
		t.Fatal("round half up")
	}
	if float64(callF(t, "fn:round", seq(xdm.Double(-2.5)))[0].(xdm.Double)) != -2 {
		t.Fatal("round(-2.5) = -2 per XQuery")
	}
	if !callF(t, "fn:abs", nil).Empty() {
		t.Fatal("abs(()) is ()")
	}
}

func TestFnTemporalParts(t *testing.T) {
	d, err := xdm.ParseAtomic("2006-07-05", xdm.TypeDate)
	if err != nil {
		t.Fatal(err)
	}
	if callF(t, "fn:year-from-date", seq(d))[0].(xdm.Integer) != 2006 {
		t.Fatal("year")
	}
	if callF(t, "fn:month-from-date", seq(d))[0].(xdm.Integer) != 7 {
		t.Fatal("month")
	}
	if callF(t, "fn:day-from-date", seq(d))[0].(xdm.Integer) != 5 {
		t.Fatal("day")
	}
	dt, _ := xdm.ParseAtomic("2006-07-05T13:14:15", xdm.TypeDateTime)
	if callF(t, "fn:hours-from-dateTime", seq(dt))[0].(xdm.Integer) != 13 {
		t.Fatal("hours")
	}
	// Untyped input (atomized element content) casts on demand.
	if callF(t, "fn:year-from-date", seq(xdm.Untyped("1999-12-31")))[0].(xdm.Integer) != 1999 {
		t.Fatal("year from untyped")
	}
}

func TestBeaIfEmpty(t *testing.T) {
	out := callF(t, "fn-bea:if-empty", nil, seq(xdm.String("dflt")))
	if string(out[0].(xdm.String)) != "dflt" {
		t.Fatalf("out = %v", out)
	}
	out = callF(t, "fn-bea:if-empty", seq(xdm.String("x")), seq(xdm.String("dflt")))
	if string(out[0].(xdm.String)) != "x" {
		t.Fatalf("out = %v", out)
	}
}

func TestBeaXMLEscapeAndSerializeAtomic(t *testing.T) {
	out := callF(t, "fn-bea:xml-escape", seq(xdm.String("a<b&c")))
	if string(out[0].(xdm.String)) != "a&lt;b&amp;c" {
		t.Fatalf("out = %v", out)
	}
	out = callF(t, "fn-bea:serialize-atomic", seq(xdm.Decimal(2.5)))
	if string(out[0].(xdm.String)) != "2.5" {
		t.Fatalf("out = %v", out)
	}
	if !callF(t, "fn-bea:serialize-atomic", nil).Empty() {
		t.Fatal("serialize-atomic(()) is ()")
	}
}

func TestBeaSQLLike(t *testing.T) {
	cases := []struct {
		s, pattern, escape string
		want               bool
	}{
		{"hello", "hello", "", true},
		{"hello", "h%", "", true},
		{"hello", "%llo", "", true},
		{"hello", "h_llo", "", true},
		{"hello", "h_l", "", false},
		{"hello", "%", "", true},
		{"", "%", "", true},
		{"", "_", "", false},
		{"50%", "50!%", "!", true},
		{"50x", "50!%", "!", false},
		{"a_b", "a!_b", "!", true},
		{"axb", "a!_b", "!", false},
		{"abc", "ABC", "", false}, // LIKE is case-sensitive
		{"100% sure", "100!% s%", "!", true},
	}
	for _, c := range cases {
		args := []xdm.Sequence{seq(xdm.String(c.s)), seq(xdm.String(c.pattern))}
		if c.escape != "" {
			args = append(args, seq(xdm.String(c.escape)))
		}
		b, ok := builtins["fn-bea:sql-like"]
		if !ok {
			t.Fatal("missing sql-like")
		}
		out, err := b.impl(args)
		if err != nil {
			t.Fatalf("%q LIKE %q: %v", c.s, c.pattern, err)
		}
		if bool(out[0].(xdm.Boolean)) != c.want {
			t.Fatalf("%q LIKE %q (esc %q) = %v, want %v", c.s, c.pattern, c.escape, out[0], c.want)
		}
	}
	// NULL propagation.
	if !callF(t, "fn-bea:sql-like", nil, seq(xdm.String("%"))).Empty() {
		t.Fatal("NULL LIKE p should be empty")
	}
	// Bad escape.
	b := builtins["fn-bea:sql-like"]
	if _, err := b.impl([]xdm.Sequence{seq(xdm.String("x")), seq(xdm.String("x")), seq(xdm.String("ab"))}); err == nil {
		t.Fatal("multi-char escape should error")
	}
	if _, err := b.impl([]xdm.Sequence{seq(xdm.String("x")), seq(xdm.String("x!")), seq(xdm.String("!"))}); err == nil {
		t.Fatal("trailing escape should error")
	}
}

func TestBeaTrim(t *testing.T) {
	if string(callF(t, "fn-bea:trim", seq(xdm.String("  x  ")))[0].(xdm.String)) != "x" {
		t.Fatal("trim")
	}
	if string(callF(t, "fn-bea:trim-left", seq(xdm.String("  x  ")))[0].(xdm.String)) != "x  " {
		t.Fatal("trim-left")
	}
	if string(callF(t, "fn-bea:trim-right", seq(xdm.String("  x  ")))[0].(xdm.String)) != "  x" {
		t.Fatal("trim-right")
	}
	if string(callF(t, "fn-bea:trim", seq(xdm.String("xxaxx")), seq(xdm.String("x")))[0].(xdm.String)) != "a" {
		t.Fatal("trim with cutset")
	}
}

func rowOf(cols ...string) *xdm.Element {
	r := xdm.NewElement("RECORD")
	for i := 0; i+1 < len(cols); i += 2 {
		r.AddChild(xdm.NewTextElement(cols[i], cols[i+1]))
	}
	return r
}

func TestBeaDistinctRows(t *testing.T) {
	rows := seq(rowOf("A", "1", "B", "x"), rowOf("A", "1", "B", "x"), rowOf("A", "2", "B", "x"))
	out := callF(t, "fn-bea:distinct-rows", rows)
	if len(out) != 2 {
		t.Fatalf("distinct rows = %d", len(out))
	}
}

func TestBeaRowsExcept(t *testing.T) {
	left := seq(rowOf("A", "1"), rowOf("A", "1"), rowOf("A", "2"), rowOf("A", "3"))
	right := seq(rowOf("A", "1"), rowOf("A", "3"))
	// EXCEPT DISTINCT: {2}
	out := callF(t, "fn-bea:rows-except", left, right, seq(xdm.Boolean(false)))
	if len(out) != 1 || elementOf(out[0]).FirstChildElement("A").StringValue() != "2" {
		t.Fatalf("except = %v", out)
	}
	// EXCEPT ALL: one "1" survives (2 minus 1), plus "2" → {1, 2}
	out = callF(t, "fn-bea:rows-except", left, right, seq(xdm.Boolean(true)))
	if len(out) != 2 {
		t.Fatalf("except all = %d rows", len(out))
	}
}

func TestBeaRowsIntersect(t *testing.T) {
	left := seq(rowOf("A", "1"), rowOf("A", "1"), rowOf("A", "2"))
	right := seq(rowOf("A", "1"), rowOf("A", "1"), rowOf("A", "3"))
	out := callF(t, "fn-bea:rows-intersect", left, right, seq(xdm.Boolean(false)))
	if len(out) != 1 {
		t.Fatalf("intersect = %d rows", len(out))
	}
	out = callF(t, "fn-bea:rows-intersect", left, right, seq(xdm.Boolean(true)))
	if len(out) != 2 {
		t.Fatalf("intersect all = %d rows", len(out))
	}
}

func TestBeaPositionAndRepeat(t *testing.T) {
	if callF(t, "fn-bea:position", seq(xdm.String("ll")), seq(xdm.String("hello")))[0].(xdm.Integer) != 3 {
		t.Fatal("position")
	}
	if callF(t, "fn-bea:position", seq(xdm.String("zz")), seq(xdm.String("hello")))[0].(xdm.Integer) != 0 {
		t.Fatal("position missing = 0")
	}
	if callF(t, "fn-bea:position", seq(xdm.String("")), seq(xdm.String("hello")))[0].(xdm.Integer) != 1 {
		t.Fatal("position empty needle = 1")
	}
	if string(callF(t, "fn-bea:repeat", seq(xdm.String("ab")), seq(xdm.Integer(3)))[0].(xdm.String)) != "ababab" {
		t.Fatal("repeat")
	}
}

func TestXSConstructorFunctionCall(t *testing.T) {
	// xs:integer("42") called as a function (not a Cast node).
	e := New()
	q := &xquery.Query{Body: xquery.Call("xs:integer", xquery.Str("42"))}
	out, err := evalQuery(e, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(xdm.Integer) != 42 {
		t.Fatalf("out = %v", out)
	}
}

func TestBuiltinArityChecking(t *testing.T) {
	e := New()
	if _, err := evalQuery(e, &xquery.Query{Body: xquery.Call("fn:count")}, nil); err == nil || !strings.Contains(err.Error(), "at least") {
		t.Fatalf("err = %v", err)
	}
	if _, err := evalQuery(e, &xquery.Query{Body: xquery.Call("fn:empty", &xquery.EmptySeq{}, &xquery.EmptySeq{})}, nil); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Fatalf("err = %v", err)
	}
}
