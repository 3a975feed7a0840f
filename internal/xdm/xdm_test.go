package xdm

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSequenceEmptyAndSingleton(t *testing.T) {
	var s Sequence
	if !s.Empty() {
		t.Fatal("nil sequence should be empty")
	}
	if _, err := s.Singleton(); err == nil {
		t.Fatal("Singleton on empty sequence should error")
	}
	s = SequenceOf(Integer(1))
	it, err := s.Singleton()
	if err != nil {
		t.Fatalf("Singleton: %v", err)
	}
	if it.(Integer) != 1 {
		t.Fatalf("got %v", it)
	}
	s = SequenceOf(Integer(1), Integer(2))
	if _, err := s.Singleton(); err == nil {
		t.Fatal("Singleton on 2-item sequence should error")
	}
}

func TestSequenceOfDropsNil(t *testing.T) {
	s := SequenceOf(nil, Integer(7), nil)
	if len(s) != 1 {
		t.Fatalf("expected 1 item, got %d", len(s))
	}
}

func TestQNameEqualIgnoresPrefix(t *testing.T) {
	a := QName{Space: "urn:x", Prefix: "p", Local: "n"}
	b := QName{Space: "urn:x", Prefix: "q", Local: "n"}
	if !a.Equal(b) {
		t.Fatal("names with same URI+local should be equal")
	}
	c := QName{Space: "urn:y", Local: "n"}
	if a.Equal(c) {
		t.Fatal("different namespace should not be equal")
	}
}

func TestElementStringValue(t *testing.T) {
	e := NewElement("ROW")
	id := NewTextElement("ID", "42")
	name := NewTextElement("NAME", "Sue")
	e.AddChild(id)
	e.AddChild(name)
	if got := e.StringValue(); got != "42Sue" {
		t.Fatalf("string value = %q", got)
	}
	if got := id.StringValue(); got != "42" {
		t.Fatalf("leaf string value = %q", got)
	}
}

func TestChildElements(t *testing.T) {
	e := NewElement("ROW")
	e.AddChild(NewTextElement("A", "1"))
	e.AddChild(NewTextElement("B", "2"))
	e.AddChild(NewTextElement("A", "3"))
	if got := len(e.ChildElements("A")); got != 2 {
		t.Fatalf("A children = %d", got)
	}
	if got := len(e.ChildElements("*")); got != 3 {
		t.Fatalf("* children = %d", got)
	}
	if e.FirstChildElement("B") == nil || e.FirstChildElement("C") != nil {
		t.Fatal("FirstChildElement lookup wrong")
	}
}

func TestElementClone(t *testing.T) {
	e := NewElement("ROW")
	e.SetAttr(QName{Local: "k"}, "v")
	e.AddChild(NewTextElement("A", "1"))
	cp := e.Clone()
	cp.ChildElements("A")[0].Children[0].(*Text).Value = "mutated"
	cp.SetAttr(QName{Local: "k"}, "changed")
	if e.ChildElements("A")[0].StringValue() != "1" {
		t.Fatal("clone shares child text")
	}
	if v, _ := e.Attribute("k"); v != "v" {
		t.Fatal("clone shares attributes")
	}
}

func TestAtomizeAndStringValue(t *testing.T) {
	el := NewTextElement("ID", "10")
	s := Atomize(SequenceOf(el, Integer(5)))
	if len(s) != 2 {
		t.Fatalf("len = %d", len(s))
	}
	if u, ok := s[0].(Untyped); !ok || string(u) != "10" {
		t.Fatalf("atomized node = %#v", s[0])
	}
	if s[1].(Integer) != 5 {
		t.Fatalf("atomic passthrough = %#v", s[1])
	}
	if StringValue(el) != "10" || StringValue(Integer(5)) != "5" {
		t.Fatal("StringValue wrong")
	}
}

func TestEffectiveBool(t *testing.T) {
	cases := []struct {
		in   Sequence
		want bool
		err  bool
	}{
		{nil, false, false},
		{SequenceOf(NewElement("X")), true, false},
		{SequenceOf(Boolean(true)), true, false},
		{SequenceOf(Boolean(false)), false, false},
		{SequenceOf(String("")), false, false},
		{SequenceOf(String("x")), true, false},
		{SequenceOf(Untyped("")), false, false},
		{SequenceOf(Integer(0)), false, false},
		{SequenceOf(Integer(3)), true, false},
		{SequenceOf(Double(0)), false, false},
		{SequenceOf(Integer(1), Integer(2)), false, true},
	}
	for i, c := range cases {
		got, err := EffectiveBool(c.in)
		if (err != nil) != c.err {
			t.Fatalf("case %d: err = %v", i, err)
		}
		if err == nil && got != c.want {
			t.Fatalf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

func TestCompareAtomicPromotion(t *testing.T) {
	cases := []struct {
		a, b Atomic
		op   CompareOp
		want bool
	}{
		{Integer(1), Integer(1), OpEq, true},
		{Integer(1), Decimal(1.5), OpLt, true},
		{Decimal(2.5), Double(2.5), OpEq, true},
		{Untyped("10"), Integer(10), OpEq, true},
		{Untyped("10"), Integer(9), OpGt, true},
		{Integer(10), Untyped("10"), OpGe, true},
		{Untyped("abc"), String("abc"), OpEq, true},
		{Untyped("a"), Untyped("b"), OpLt, true},
		{String("Sue"), String("Sue"), OpEq, true},
		{Boolean(false), Boolean(true), OpLt, true},
		{String("b"), String("a"), OpNe, true},
		{Integer(5), Integer(5), OpLe, true},
	}
	for i, c := range cases {
		got, err := CompareAtomic(c.a, c.b, c.op)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Fatalf("case %d: %v %v %v = %v, want %v", i, c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestCompareAtomicErrors(t *testing.T) {
	if _, err := CompareAtomic(Boolean(true), Integer(1), OpEq); err == nil {
		t.Fatal("boolean vs integer should not compare")
	}
	if _, err := CompareAtomic(Untyped("zz"), Integer(1), OpEq); err == nil {
		t.Fatal("non-numeric untyped vs integer should fail cast")
	}
}

func TestTemporalComparison(t *testing.T) {
	d1 := Date{T: time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)}
	d2 := Date{T: time.Date(2006, 3, 4, 0, 0, 0, 0, time.UTC)}
	lt, err := CompareAtomic(d1, d2, OpLt)
	if err != nil || !lt {
		t.Fatalf("date compare: %v %v", lt, err)
	}
	// String vs temporal compares lexically (ISO order == temporal order).
	ok, err := CompareAtomic(String("2006-01-02"), d2, OpLt)
	if err != nil || !ok {
		t.Fatalf("string-vs-date compare: %v %v", ok, err)
	}
	// Untyped casts to the temporal type.
	ok, err = CompareAtomic(Untyped("2006-01-02"), d1, OpEq)
	if err != nil || !ok {
		t.Fatalf("untyped-vs-date compare: %v %v", ok, err)
	}
}

func TestArithPromotion(t *testing.T) {
	got, err := Arith(Integer(2), Integer(3), OpAdd)
	if err != nil || got.(Integer) != 5 {
		t.Fatalf("2+3 = %v, %v", got, err)
	}
	got, err = Arith(Integer(7), Integer(2), OpDiv)
	if err != nil {
		t.Fatalf("7 div 2: %v", err)
	}
	if d, ok := got.(Decimal); !ok || float64(d) != 3.5 {
		t.Fatalf("7 div 2 = %#v (XQuery div promotes to decimal)", got)
	}
	got, err = Arith(Decimal(1.5), Integer(2), OpMul)
	if err != nil || float64(got.(Decimal)) != 3.0 {
		t.Fatalf("1.5*2 = %v, %v", got, err)
	}
	got, err = Arith(Double(1), Integer(2), OpSub)
	if err != nil || float64(got.(Double)) != -1 {
		t.Fatalf("1e0-2 = %v, %v", got, err)
	}
	got, err = Arith(Untyped("4"), Integer(2), OpDiv)
	if err != nil || float64(got.(Double)) != 2 {
		t.Fatalf("untyped arithmetic should go through double: %v, %v", got, err)
	}
	if _, err := Arith(Integer(1), Integer(0), OpMod); err == nil {
		t.Fatal("mod by zero should error")
	}
	if _, err := Arith(String("a"), Integer(1), OpAdd); err == nil {
		t.Fatal("string arithmetic should error")
	}
	got, err = Arith(Integer(7), Integer(3), OpMod)
	if err != nil || got.(Integer) != 1 {
		t.Fatalf("7 mod 3 = %v, %v", got, err)
	}
}

func TestNegate(t *testing.T) {
	if v, err := Negate(Integer(5)); err != nil || v.(Integer) != -5 {
		t.Fatalf("negate int: %v %v", v, err)
	}
	if v, err := Negate(Decimal(2.5)); err != nil || float64(v.(Decimal)) != -2.5 {
		t.Fatalf("negate decimal: %v %v", v, err)
	}
	if v, err := Negate(Untyped("3")); err != nil || float64(v.(Double)) != -3 {
		t.Fatalf("negate untyped: %v %v", v, err)
	}
	if _, err := Negate(String("x")); err == nil {
		t.Fatal("negate string should error")
	}
}

func TestCastLexicalForms(t *testing.T) {
	cases := []struct {
		in      Atomic
		target  AtomicType
		lexical string
	}{
		{Untyped(" 42 "), TypeInteger, "42"},
		{Untyped("10.0"), TypeInteger, "10"},
		{String("3.25"), TypeDecimal, "3.25"},
		{Integer(5), TypeDouble, "5"},
		{Integer(1), TypeBoolean, "true"},
		{Boolean(true), TypeInteger, "1"},
		{Decimal(2.75), TypeInteger, "2"},
		{Double(3.99), TypeInteger, "3"},
		{String("true"), TypeBoolean, "true"},
		{String("0"), TypeBoolean, "false"},
		{Integer(42), TypeString, "42"},
		{String("2006-01-02"), TypeDate, "2006-01-02"},
		{String("13:14:15"), TypeTime, "13:14:15"},
		{String("2006-01-02T13:14:15"), TypeDateTime, "2006-01-02T13:14:15"},
		{String("INF"), TypeDouble, "INF"},
	}
	for i, c := range cases {
		got, err := Cast(c.in, c.target)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Type() != c.target {
			t.Fatalf("case %d: type = %v", i, got.Type())
		}
		if got.Lexical() != c.lexical {
			t.Fatalf("case %d: lexical = %q want %q", i, got.Lexical(), c.lexical)
		}
	}
}

func TestCastErrors(t *testing.T) {
	if _, err := Cast(String("abc"), TypeInteger); err == nil {
		t.Fatal("string 'abc' to integer should fail")
	}
	if _, err := Cast(String("1.5"), TypeInteger); err == nil {
		t.Fatal("non-integral decimal lexical to integer should fail")
	}
	if _, err := Cast(String("maybe"), TypeBoolean); err == nil {
		t.Fatal("bad boolean lexical should fail")
	}
	if _, err := Cast(Double(math.NaN()), TypeInteger); err == nil {
		t.Fatal("NaN to integer should fail")
	}
	if _, err := Cast(String("not-a-date"), TypeDate); err == nil {
		t.Fatal("bad date lexical should fail")
	}
}

func TestCastDateTimeConversions(t *testing.T) {
	dt, err := ParseAtomic("2006-01-02T13:14:15", TypeDateTime)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Cast(dt, TypeDate)
	if err != nil || d.Lexical() != "2006-01-02" {
		t.Fatalf("dateTime→date: %v %v", d, err)
	}
	tm, err := Cast(dt, TypeTime)
	if err != nil || tm.Lexical() != "13:14:15" {
		t.Fatalf("dateTime→time: %v %v", tm, err)
	}
	d2, err := ParseAtomic("2006-01-02", TypeDate)
	if err != nil {
		t.Fatal(err)
	}
	dt2, err := Cast(d2, TypeDateTime)
	if err != nil || dt2.Lexical() != "2006-01-02T00:00:00" {
		t.Fatalf("date→dateTime: %v %v", dt2, err)
	}
}

func TestMarshalEscaping(t *testing.T) {
	e := NewElement("ROW")
	e.AddChild(NewTextElement("NAME", `Acme <Widgets> & "Sons"`))
	got := Marshal(e)
	want := `<ROW><NAME>Acme &lt;Widgets&gt; &amp; "Sons"</NAME></ROW>`
	if got != want {
		t.Fatalf("got %s", got)
	}
}

func TestMarshalWhitespaceRoundTrip(t *testing.T) {
	// A literal CR in text is normalized to LF by any conforming parser,
	// and literal tab/newline in attributes normalize to spaces; only
	// character references survive the trip.
	e := NewElement("ROW")
	e.SetAttr(QName{Local: "note"}, "a\tb\nc\rd")
	e.AddChild(NewTextElement("MEMO", "line1\r\nline2\rend"))
	doc, err := ParseString(Marshal(e))
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if got, _ := root.Attribute("note"); got != "a\tb\nc\rd" {
		t.Fatalf("attr = %q", got)
	}
	if got := root.FirstChildElement("MEMO").StringValue(); got != "line1\r\nline2\rend" {
		t.Fatalf("text = %q", got)
	}
}

func TestMarshalNamespaceAndAttrs(t *testing.T) {
	e := &Element{Name: QName{Space: "ld:Test/CUSTOMERS", Prefix: "ns0", Local: "CUSTOMERS"}}
	e.SetAttr(QName{Local: "id"}, `a"b`)
	e.AddChild(NewTextElement("CUSTOMERID", "55"))
	got := Marshal(e)
	want := `<ns0:CUSTOMERS xmlns:ns0="ld:Test/CUSTOMERS" id="a&quot;b"><CUSTOMERID>55</CUSTOMERID></ns0:CUSTOMERS>`
	if got != want {
		t.Fatalf("got %s", got)
	}
}

func TestMarshalEmptyElement(t *testing.T) {
	if got := Marshal(NewElement("NIL")); got != "<NIL/>" {
		t.Fatalf("got %s", got)
	}
}

func TestMarshalSequence(t *testing.T) {
	s := SequenceOf(Integer(1), Integer(2), NewTextElement("X", "y"), Integer(3))
	got := MarshalSequence(s)
	if got != "1 2<X>y</X>3" {
		t.Fatalf("got %q", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `<RECORDSET><RECORD><ID>55</ID><NAME>Joe &amp; Sons</NAME></RECORD><RECORD><ID>23</ID><NAME>Sue</NAME></RECORD></RECORDSET>`
	doc, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if root == nil || root.Name.Local != "RECORDSET" {
		t.Fatalf("root = %v", root)
	}
	recs := root.ChildElements("RECORD")
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].FirstChildElement("NAME").StringValue() != "Joe & Sons" {
		t.Fatalf("unescape failed: %q", recs[0].FirstChildElement("NAME").StringValue())
	}
	if Marshal(root) != src {
		t.Fatalf("round trip:\n in: %s\nout: %s", src, Marshal(root))
	}
}

func TestParseNamespaces(t *testing.T) {
	src := `<ns0:CUSTOMERS xmlns:ns0="ld:Test/CUSTOMERS"><CUSTOMERID>55</CUSTOMERID></ns0:CUSTOMERS>`
	el, err := ParseElement(src)
	if err != nil {
		t.Fatal(err)
	}
	if el.Name.Space != "ld:Test/CUSTOMERS" || el.Name.Local != "CUSTOMERS" {
		t.Fatalf("name = %+v", el.Name)
	}
	if el.FirstChildElement("CUSTOMERID").StringValue() != "55" {
		t.Fatal("child lookup through namespaced parent failed")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseString("<A><B></A>"); err == nil {
		t.Fatal("mismatched tags should fail")
	}
	if _, err := ParseElement(""); err == nil {
		t.Fatal("empty payload should fail")
	}
}

func TestTrimBoundaryWhitespace(t *testing.T) {
	doc, err := ParseString("<A>\n  <B>x</B>\n  <C> keep me </C>\n</A>")
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	TrimBoundaryWhitespace(root)
	if len(root.Children) != 2 {
		t.Fatalf("children = %d: %v", len(root.Children), Marshal(root))
	}
	if root.FirstChildElement("C").StringValue() != " keep me " {
		t.Fatal("non-boundary text must be preserved")
	}
}

func TestDeepEqual(t *testing.T) {
	a := NewElement("R")
	a.AddChild(NewTextElement("ID", "1"))
	b := a.Clone()
	if !DeepEqual(SequenceOf(a), SequenceOf(b)) {
		t.Fatal("clones should be deep-equal")
	}
	b.ChildElements("ID")[0].Children[0].(*Text).Value = "2"
	if DeepEqual(SequenceOf(a), SequenceOf(b)) {
		t.Fatal("different text should not be deep-equal")
	}
	if !DeepEqual(SequenceOf(Integer(1)), SequenceOf(Decimal(1))) {
		t.Fatal("numerically equal atomics should be deep-equal")
	}
	if DeepEqual(SequenceOf(Integer(1)), SequenceOf(a)) {
		t.Fatal("atomic vs node should not be deep-equal")
	}
	if DeepEqual(SequenceOf(Integer(1)), SequenceOf(Integer(1), Integer(2))) {
		t.Fatal("length mismatch should not be deep-equal")
	}
}

func TestSortKeyDistinguishesNullFromEmpty(t *testing.T) {
	withEmpty := NewElement("R")
	withEmpty.AddChild(NewElement("A")) // empty element: value "", but present
	withoutA := NewElement("R")         // column absent: SQL NULL
	if SortKey(withEmpty) == SortKey(withoutA) {
		t.Fatal("empty string and NULL must have distinct row keys")
	}
}

func TestMarshalIndentReadable(t *testing.T) {
	e := NewElement("RECORDSET")
	r := NewElement("RECORD")
	r.AddChild(NewTextElement("ID", "1"))
	e.AddChild(r)
	out := MarshalIndent(e)
	if !strings.Contains(out, "  <RECORD>") || !strings.Contains(out, "    <ID>1</ID>") {
		t.Fatalf("indentation wrong:\n%s", out)
	}
}

func TestEscapeTextFastPath(t *testing.T) {
	s := "plain text without specials"
	if EscapeText(s) != s {
		t.Fatal("fast path should return input unchanged")
	}
}

// TestEscapeTextTable: the four specials become entities and every other
// byte is copied, so invalid UTF-8 survives whether or not the value also
// holds a special.
func TestEscapeTextTable(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", ""},
		{"a<b>c&d\re", "a&lt;b&gt;c&amp;d&#xD;e"},
		{"&&", "&amp;&amp;"},
		{"café € <é> 😀", "café € &lt;é&gt; 😀"},
		{"\xff", "\xff"},
		{"\xff&", "\xff&amp;"},
		{"<\xc3", "&lt;\xc3"},
	} {
		if got := EscapeText(c.in); got != c.want {
			t.Errorf("EscapeText(%q) = %q, want %q", c.in, got, c.want)
		}
		if got := string(AppendEscapedText([]byte("x"), c.in)); got != "x"+c.want {
			t.Errorf("AppendEscapedText(%q) = %q, want %q", c.in, got, "x"+c.want)
		}
	}
}

// ParseAtomic's direct parse of string/integer/decimal forms is a second
// path beside Cast(Untyped(...)): hold the two identical — value, type and
// error text — over well-formed, lenient and malformed lexical forms.
func TestParseAtomicMatchesCast(t *testing.T) {
	lexicals := []string{
		"", "0", "7", "-7", "+7", "007", "9223372036854775807", "9223372036854775808",
		"10.0", "10.5", "-0.25", ".5", "5.", "1e3", "1E-2", "0x10", "1_000", "NaN", "Inf", "-Inf",
		" 42", "42 ", "\t4.2\n", "4 2", "abc", "1,5", "&null;", "<b>", "true",
	}
	for _, typ := range []AtomicType{TypeString, TypeInteger, TypeDecimal} {
		for _, lex := range lexicals {
			got, gerr := ParseAtomic(lex, typ)
			want, werr := Cast(Untyped(lex), typ)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Errorf("%s %q: ParseAtomic error %v, Cast error %v", typ, lex, gerr, werr)
				continue
			}
			if gerr == nil && (got.Type() != want.Type() || got.Lexical() != want.Lexical()) {
				t.Errorf("%s %q: ParseAtomic = %s %q, Cast = %s %q", typ, lex, got.Type(), got.Lexical(), want.Type(), want.Lexical())
			}
		}
	}
}
