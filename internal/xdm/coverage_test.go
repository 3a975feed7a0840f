package xdm

import (
	"strings"
	"testing"
)

// TestCastMatrix exercises every meaningful source→target cast pair.
func TestCastMatrix(t *testing.T) {
	d, _ := ParseAtomic("2006-07-05", TypeDate)
	dt, _ := ParseAtomic("2006-07-05T10:20:30", TypeDateTime)
	tm, _ := ParseAtomic("10:20:30", TypeTime)

	cases := []struct {
		in     Atomic
		target AtomicType
		want   string
		fails  bool
	}{
		// → boolean
		{Integer(0), TypeBoolean, "false", false},
		{Decimal(1.5), TypeBoolean, "true", false},
		{Double(0), TypeBoolean, "false", false},
		{Untyped("1"), TypeBoolean, "true", false},
		{d, TypeBoolean, "", true},
		// → integer
		{Boolean(false), TypeInteger, "0", false},
		{Decimal(-2.9), TypeInteger, "-2", false},
		{Double(7.99), TypeInteger, "7", false},
		{d, TypeInteger, "", true},
		// → decimal
		{Boolean(true), TypeDecimal, "1", false},
		{Boolean(false), TypeDecimal, "0", false},
		{Integer(3), TypeDecimal, "3", false},
		{Double(2.25), TypeDecimal, "2.25", false},
		{Untyped("x"), TypeDecimal, "", true},
		{d, TypeDecimal, "", true},
		// → double
		{Boolean(true), TypeDouble, "1", false},
		{Boolean(false), TypeDouble, "0", false},
		{Decimal(0.5), TypeDouble, "0.5", false},
		{Untyped("-INF"), TypeDouble, "-INF", false},
		{Untyped("NaN"), TypeDouble, "NaN", false},
		{d, TypeDouble, "", true},
		// → string / untyped
		{dt, TypeString, "2006-07-05T10:20:30", false},
		{tm, TypeUntyped, "10:20:30", false},
		// temporal conversions
		{dt, TypeDate, "2006-07-05", false},
		{dt, TypeTime, "10:20:30", false},
		{d, TypeDateTime, "2006-07-05T00:00:00", false},
		{Integer(5), TypeDate, "", true},
		{Boolean(true), TypeTime, "", true},
	}
	for i, c := range cases {
		got, err := Cast(c.in, c.target)
		if c.fails {
			if err == nil {
				t.Errorf("case %d: Cast(%v, %v) should fail, got %v", i, c.in, c.target, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("case %d: Cast(%v, %v): %v", i, c.in, c.target, err)
			continue
		}
		if got.Lexical() != c.want {
			t.Errorf("case %d: Cast(%v, %v) = %q, want %q", i, c.in, c.target, got.Lexical(), c.want)
		}
	}
}

// TestArithBranches covers decimal/double arithmetic including the error
// branches (division and modulus by zero are errors for exact numerics but
// defined for doubles).
func TestArithBranches(t *testing.T) {
	if _, err := Arith(Decimal(1), Decimal(0), OpDiv); err == nil {
		t.Fatal("decimal division by zero should error")
	}
	if _, err := Arith(Decimal(1), Decimal(0), OpMod); err == nil {
		t.Fatal("decimal modulus by zero should error")
	}
	v, err := Arith(Double(1), Double(0), OpDiv)
	if err != nil || v.Lexical() != "INF" {
		t.Fatalf("1e0 div 0 = %v, %v (IEEE semantics)", v, err)
	}
	v, err = Arith(Decimal(7.5), Decimal(2), OpMod)
	if err != nil || v.Lexical() != "1.5" {
		t.Fatalf("7.5 mod 2 = %v, %v", v, err)
	}
	v, err = Arith(Double(9), Integer(2), OpMod)
	if err != nil || v.Lexical() != "1" {
		t.Fatalf("9e0 mod 2 = %v, %v", v, err)
	}
	// Subtraction and multiplication in decimal class.
	v, _ = Arith(Decimal(5), Decimal(1.5), OpSub)
	if v.Lexical() != "3.5" {
		t.Fatalf("5 - 1.5 = %v", v)
	}
}

// TestStringersAndKinds pins the diagnostic renderings used in error
// messages (they appear in user-facing driver errors).
func TestStringersAndKinds(t *testing.T) {
	d, _ := ParseAtomic("2006-07-05", TypeDate)
	tm, _ := ParseAtomic("10:00:00", TypeTime)
	dt, _ := ParseAtomic("2006-07-05T10:00:00", TypeDateTime)
	items := []struct {
		it   Item
		kind ItemKind
		str  string
	}{
		{String("x"), KindAtomic, `"x"`},
		{Untyped("u"), KindAtomic, `untypedAtomic("u")`},
		{Boolean(true), KindAtomic, "true"},
		{Integer(7), KindAtomic, "7"},
		{Decimal(1.5), KindAtomic, "1.5"},
		{Double(2), KindAtomic, "2"},
		{d, KindAtomic, "2006-07-05"},
		{tm, KindAtomic, "10:00:00"},
		{dt, KindAtomic, "2006-07-05T10:00:00"},
		{NewElement("E"), KindElement, "element E"},
		{&Text{Value: "t"}, KindText, `text "t"`},
		{&Attr{Name: QName{Local: "a"}, Value: "v"}, KindAttribute, `attribute a="v"`},
		{&Document{}, KindDocument, "document"},
	}
	for i, c := range items {
		if c.it.Kind() != c.kind {
			t.Errorf("case %d: kind = %v", i, c.it.Kind())
		}
		if c.it.String() != c.str {
			t.Errorf("case %d: String() = %q, want %q", i, c.it.String(), c.str)
		}
	}
	for k := KindAtomic; k <= KindDocument; k++ {
		if strings.Contains(k.String(), "ItemKind(") {
			t.Errorf("missing name for kind %d", k)
		}
	}
	if (Sequence{Integer(1), Integer(2)}).String() != "(1, 2)" {
		t.Fatal("sequence String")
	}
	if (QName{Prefix: "p", Local: "l"}).String() != "p:l" {
		t.Fatal("qname String")
	}
}

func TestMarshalStandaloneNodes(t *testing.T) {
	// A document and a bare attribute/text serialize sensibly.
	doc := &Document{Children: []Node{NewTextElement("A", "x")}}
	if Marshal(doc) != "<A>x</A>" {
		t.Fatalf("doc = %q", Marshal(doc))
	}
	if Marshal(&Text{Value: "a<b"}) != "a&lt;b" {
		t.Fatal("text marshal")
	}
	if Marshal(&Attr{Name: QName{Local: "k"}, Value: "v<"}) != "v&lt;" {
		t.Fatal("attr marshal")
	}
	if doc.StringValue() != "x" {
		t.Fatal("doc string value")
	}
	// Default-namespace element (no prefix).
	e := &Element{Name: QName{Space: "urn:d", Local: "E"}}
	if got := Marshal(e); got != `<E xmlns="urn:d"/>` {
		t.Fatalf("default ns = %q", got)
	}
}

func TestOperatorStringers(t *testing.T) {
	ops := []string{OpEq.String(), OpNe.String(), OpLt.String(), OpLe.String(), OpGt.String(), OpGe.String()}
	if strings.Join(ops, " ") != "eq ne lt le gt ge" {
		t.Fatalf("compare ops = %v", ops)
	}
	arith := []string{OpAdd.String(), OpSub.String(), OpMul.String(), OpDiv.String(), OpMod.String()}
	if strings.Join(arith, " ") != "+ - * div mod" {
		t.Fatalf("arith ops = %v", arith)
	}
	for at := TypeUntyped; at <= TypeDateTime; at++ {
		if strings.Contains(at.String(), "AtomicType(") {
			t.Errorf("missing name for atomic type %d", at)
		}
	}
}

func TestDateVsDateTimePromotion(t *testing.T) {
	d, _ := ParseAtomic("2006-07-05", TypeDate)
	dtMidnight, _ := ParseAtomic("2006-07-05T00:00:00", TypeDateTime)
	dtLater, _ := ParseAtomic("2006-07-05T10:00:00", TypeDateTime)
	eq, err := CompareAtomic(d, dtMidnight, OpEq)
	if err != nil || !eq {
		t.Fatalf("date vs midnight dateTime: %v %v", eq, err)
	}
	lt, err := CompareAtomic(d, dtLater, OpLt)
	if err != nil || !lt {
		t.Fatalf("date vs later dateTime: %v %v", lt, err)
	}
	gt, err := CompareAtomic(dtLater, d, OpGt)
	if err != nil || !gt {
		t.Fatalf("dateTime vs date: %v %v", gt, err)
	}
	// Time still does not compare with date.
	tm, _ := ParseAtomic("10:00:00", TypeTime)
	if _, err := CompareAtomic(tm, d, OpEq); err == nil {
		t.Fatal("time vs date should not compare")
	}
}
