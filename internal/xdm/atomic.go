package xdm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// AtomicType enumerates the XML Schema atomic types the pipeline uses. SQL
// column types map onto these (INTEGER→xs:integer, VARCHAR→xs:string,
// DECIMAL→xs:decimal, DOUBLE/FLOAT→xs:double, DATE→xs:date, …).
type AtomicType int

// Atomic types, ordered so that numeric promotion can compare ranks
// (integer < decimal < double).
const (
	TypeUntyped AtomicType = iota
	TypeString
	TypeBoolean
	TypeInteger
	TypeDecimal
	TypeDouble
	TypeDate
	TypeTime
	TypeDateTime
)

// String returns the xs: name of the type as it appears in generated XQuery.
func (t AtomicType) String() string {
	switch t {
	case TypeUntyped:
		return "xs:untypedAtomic"
	case TypeString:
		return "xs:string"
	case TypeBoolean:
		return "xs:boolean"
	case TypeInteger:
		return "xs:integer"
	case TypeDecimal:
		return "xs:decimal"
	case TypeDouble:
		return "xs:double"
	case TypeDate:
		return "xs:date"
	case TypeTime:
		return "xs:time"
	case TypeDateTime:
		return "xs:dateTime"
	default:
		return fmt.Sprintf("AtomicType(%d)", int(t))
	}
}

// Numeric reports whether the type participates in arithmetic promotion.
func (t AtomicType) Numeric() bool {
	return t == TypeInteger || t == TypeDecimal || t == TypeDouble
}

// Temporal reports whether the type is a date/time type.
func (t AtomicType) Temporal() bool {
	return t == TypeDate || t == TypeTime || t == TypeDateTime
}

// Atomic is an atomic value item.
type Atomic interface {
	Item
	// Type returns the value's atomic type.
	Type() AtomicType
	// Lexical returns the canonical lexical form (what serialize-atomic
	// emits and what casting from string parses).
	Lexical() string
}

// Untyped is xs:untypedAtomic: the type of atomized element content in a
// schemaless world. It promotes to whatever the other comparison operand is.
type Untyped string

// Kind implements Item.
func (Untyped) Kind() ItemKind { return KindAtomic }

// Type implements Atomic.
func (Untyped) Type() AtomicType { return TypeUntyped }

// Lexical implements Atomic.
func (v Untyped) Lexical() string { return string(v) }

func (v Untyped) String() string { return fmt.Sprintf("untypedAtomic(%q)", string(v)) }

// String is xs:string.
type String string

// Kind implements Item.
func (String) Kind() ItemKind { return KindAtomic }

// Type implements Atomic.
func (String) Type() AtomicType { return TypeString }

// Lexical implements Atomic.
func (v String) Lexical() string { return string(v) }

func (v String) String() string { return strconv.Quote(string(v)) }

// Boolean is xs:boolean.
type Boolean bool

// Kind implements Item.
func (Boolean) Kind() ItemKind { return KindAtomic }

// Type implements Atomic.
func (Boolean) Type() AtomicType { return TypeBoolean }

// Lexical implements Atomic.
func (v Boolean) Lexical() string {
	if v {
		return "true"
	}
	return "false"
}

func (v Boolean) String() string { return v.Lexical() }

// Integer is xs:integer (64-bit here, ample for SQL-92 reporting workloads).
type Integer int64

// Kind implements Item.
func (Integer) Kind() ItemKind { return KindAtomic }

// Type implements Atomic.
func (Integer) Type() AtomicType { return TypeInteger }

// Lexical implements Atomic.
func (v Integer) Lexical() string { return strconv.FormatInt(int64(v), 10) }

func (v Integer) String() string { return v.Lexical() }

// Decimal is xs:decimal. It is represented as a float64; the translator's
// contract (shape of results, not bit-exact money arithmetic) tolerates
// this, and DESIGN.md records the approximation.
type Decimal float64

// Kind implements Item.
func (Decimal) Kind() ItemKind { return KindAtomic }

// Type implements Atomic.
func (Decimal) Type() AtomicType { return TypeDecimal }

// Lexical implements Atomic.
func (v Decimal) Lexical() string { return formatDecimal(float64(v)) }

func (v Decimal) String() string { return v.Lexical() }

// Double is xs:double.
type Double float64

// Kind implements Item.
func (Double) Kind() ItemKind { return KindAtomic }

// Type implements Atomic.
func (Double) Type() AtomicType { return TypeDouble }

// Lexical implements Atomic.
func (v Double) Lexical() string {
	f := float64(v)
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "INF"
	case math.IsInf(f, -1):
		return "-INF"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func (v Double) String() string { return v.Lexical() }

// Date is xs:date (time-of-day zeroed, UTC).
type Date struct{ T time.Time }

// Kind implements Item.
func (Date) Kind() ItemKind { return KindAtomic }

// Type implements Atomic.
func (Date) Type() AtomicType { return TypeDate }

// Lexical implements Atomic.
func (v Date) Lexical() string { return v.T.Format("2006-01-02") }

func (v Date) String() string { return v.Lexical() }

// Time is xs:time.
type Time struct{ T time.Time }

// Kind implements Item.
func (Time) Kind() ItemKind { return KindAtomic }

// Type implements Atomic.
func (Time) Type() AtomicType { return TypeTime }

// Lexical implements Atomic.
func (v Time) Lexical() string { return v.T.Format("15:04:05") }

func (v Time) String() string { return v.Lexical() }

// DateTime is xs:dateTime.
type DateTime struct{ T time.Time }

// Kind implements Item.
func (DateTime) Kind() ItemKind { return KindAtomic }

// Type implements Atomic.
func (DateTime) Type() AtomicType { return TypeDateTime }

// Lexical implements Atomic.
func (v DateTime) Lexical() string { return v.T.Format("2006-01-02T15:04:05") }

func (v DateTime) String() string { return v.Lexical() }

// formatDecimal renders a decimal without exponent notation, trimming
// trailing zeros but keeping at least one integer digit.
func formatDecimal(f float64) string {
	s := strconv.FormatFloat(f, 'f', -1, 64)
	return s
}

// CompareOp is a value-comparison operator.
type CompareOp int

// Comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "eq"
	case OpNe:
		return "ne"
	case OpLt:
		return "lt"
	case OpLe:
		return "le"
	case OpGt:
		return "gt"
	case OpGe:
		return "ge"
	default:
		return fmt.Sprintf("CompareOp(%d)", int(op))
	}
}

// CompareAtomic applies a value comparison to two atomic values, promoting
// numerics and casting untypedAtomic to the other operand's type (the
// XQuery general-comparison rule the generated queries rely on).
func CompareAtomic(a, b Atomic, op CompareOp) (bool, error) {
	c, err := OrderAtomic(a, b)
	if err != nil {
		return false, err
	}
	return orderSatisfies(c, op)
}

// CompareUntyped is CompareAtomic(Untyped(text), b, op) — same result, same
// error text — without boxing text: the comparison a column read makes
// against an operand. Numeric and string operands parse and order through
// the code Cast and OrderAtomic use; other types take CompareAtomic itself.
func CompareUntyped(text string, b Atomic, op CompareOp) (bool, error) {
	var c int
	switch bv := b.(type) {
	case Untyped:
		c = strings.Compare(text, string(bv))
	case String:
		c = strings.Compare(text, string(bv))
	case Integer:
		n, ok := parseInteger(text)
		if !ok {
			return false, castErr(Untyped(text), TypeInteger)
		}
		c = orderInt(n, int64(bv))
	case Decimal:
		f, ok := parseDecimal(text)
		if !ok {
			return false, castErr(Untyped(text), TypeDecimal)
		}
		c = orderFloat(f, float64(bv))
	case Double:
		f, ok := UntypedNumber(text)
		if !ok {
			return false, castErr(Untyped(text), TypeDouble)
		}
		c = orderFloat(f, float64(bv))
	default:
		return CompareAtomic(Untyped(text), b, op)
	}
	return orderSatisfies(c, op)
}

// orderSatisfies reports whether an OrderAtomic result c satisfies op.
func orderSatisfies(c int, op CompareOp) (bool, error) {
	switch op {
	case OpEq:
		return c == 0, nil
	case OpNe:
		return c != 0, nil
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	case OpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("xdm: unknown comparison operator %v", op)
	}
}

// OrderAtomic returns -1, 0 or +1 ordering two atomic values after
// promotion. It is the comparator the order-by and group-by implementations
// use as well.
func OrderAtomic(a, b Atomic) (int, error) {
	a2, b2, err := promotePair(a, b)
	if err != nil {
		return 0, err
	}
	switch av := a2.(type) {
	case String:
		return strings.Compare(string(av), string(b2.(String))), nil
	case Untyped:
		return strings.Compare(string(av), string(b2.(Untyped))), nil
	case Boolean:
		bv := b2.(Boolean)
		switch {
		case bool(av) == bool(bv):
			return 0, nil
		case !bool(av):
			return -1, nil
		default:
			return 1, nil
		}
	case Integer:
		return orderInt(int64(av), int64(b2.(Integer))), nil
	case Decimal:
		return orderFloat(float64(av), float64(b2.(Decimal))), nil
	case Double:
		return orderFloat(float64(av), float64(b2.(Double))), nil
	case Date:
		return orderTime(av.T, b2.(Date).T), nil
	case Time:
		return orderTime(av.T, b2.(Time).T), nil
	case DateTime:
		return orderTime(av.T, b2.(DateTime).T), nil
	default:
		return 0, fmt.Errorf("xdm: cannot order %s values", a2.Type())
	}
}

func orderInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func orderFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func orderTime(a, b time.Time) int {
	switch {
	case a.Before(b):
		return -1
	case a.After(b):
		return 1
	default:
		return 0
	}
}

// promotePair converts two atomic values to a common type for comparison:
// untypedAtomic casts to the other operand's type (or string when both are
// untyped); numerics promote integer→decimal→double; otherwise the types
// must already agree.
func promotePair(a, b Atomic) (Atomic, Atomic, error) {
	at, bt := a.Type(), b.Type()
	if at == bt {
		return a, b, nil
	}
	if at == TypeUntyped {
		ca, err := Cast(a, bt)
		if err != nil {
			return nil, nil, err
		}
		return ca, b, nil
	}
	if bt == TypeUntyped {
		cb, err := Cast(b, at)
		if err != nil {
			return nil, nil, err
		}
		return a, cb, nil
	}
	if at.Numeric() && bt.Numeric() {
		target := at
		if bt > target {
			target = bt
		}
		ca, err := Cast(a, target)
		if err != nil {
			return nil, nil, err
		}
		cb, err := Cast(b, target)
		if err != nil {
			return nil, nil, err
		}
		return ca, cb, nil
	}
	// Date promotes to dateTime (midnight), the conversion JDBC clients
	// exercise when binding time.Time parameters against DATE columns.
	if at == TypeDate && bt == TypeDateTime || at == TypeDateTime && bt == TypeDate {
		ca, err := Cast(a, TypeDateTime)
		if err != nil {
			return nil, nil, err
		}
		cb, err := Cast(b, TypeDateTime)
		if err != nil {
			return nil, nil, err
		}
		return ca, cb, nil
	}
	// xs:string and xs:untypedAtomic already handled; other date/time
	// pairings and booleans only compare with themselves.
	if at == TypeString && bt.Temporal() || bt == TypeString && at.Temporal() {
		// Allow lexical comparison of strings against temporal values:
		// ISO-8601 lexical order equals temporal order.
		return String(a.Lexical()), String(b.Lexical()), nil
	}
	return nil, nil, fmt.Errorf("xdm: cannot compare %s with %s", at, bt)
}

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "div"
	case OpMod:
		return "mod"
	default:
		return fmt.Sprintf("ArithOp(%d)", int(op))
	}
}

// Arith applies arithmetic with XQuery numeric promotion. Untyped operands
// are cast to xs:double first, per the XQuery arithmetic rules.
func Arith(a, b Atomic, op ArithOp) (Atomic, error) {
	var err error
	if a.Type() == TypeUntyped {
		if a, err = Cast(a, TypeDouble); err != nil {
			return nil, err
		}
	}
	if b.Type() == TypeUntyped {
		if b, err = Cast(b, TypeDouble); err != nil {
			return nil, err
		}
	}
	if !a.Type().Numeric() || !b.Type().Numeric() {
		return nil, fmt.Errorf("xdm: arithmetic %v undefined for %s and %s", op, a.Type(), b.Type())
	}
	target := a.Type()
	if b.Type() > target {
		target = b.Type()
	}
	// Integer division in XQuery's div returns a decimal; SQL-92 integer
	// division truncates. The translator emits idiv-like semantics via
	// casts, so plain div here follows XQuery and promotes to decimal.
	if op == OpDiv && target == TypeInteger {
		target = TypeDecimal
	}
	ca, err := Cast(a, target)
	if err != nil {
		return nil, err
	}
	cb, err := Cast(b, target)
	if err != nil {
		return nil, err
	}
	switch target {
	case TypeInteger:
		x, y := int64(ca.(Integer)), int64(cb.(Integer))
		switch op {
		case OpAdd:
			return Integer(x + y), nil
		case OpSub:
			return Integer(x - y), nil
		case OpMul:
			return Integer(x * y), nil
		case OpMod:
			if y == 0 {
				return nil, fmt.Errorf("xdm: modulus by zero")
			}
			return Integer(x % y), nil
		}
	case TypeDecimal:
		x, y := floatOf(ca), floatOf(cb)
		v, err := floatArith(x, y, op, false)
		if err != nil {
			return nil, err
		}
		return Decimal(v), nil
	case TypeDouble:
		x, y := floatOf(ca), floatOf(cb)
		v, err := floatArith(x, y, op, true)
		if err != nil {
			return nil, err
		}
		return Double(v), nil
	}
	return nil, fmt.Errorf("xdm: arithmetic %v undefined for %s", op, target)
}

func floatOf(a Atomic) float64 {
	switch v := a.(type) {
	case Integer:
		return float64(v)
	case Decimal:
		return float64(v)
	case Double:
		return float64(v)
	default:
		return math.NaN()
	}
}

func floatArith(x, y float64, op ArithOp, isDouble bool) (float64, error) {
	switch op {
	case OpAdd:
		return x + y, nil
	case OpSub:
		return x - y, nil
	case OpMul:
		return x * y, nil
	case OpDiv:
		if y == 0 && !isDouble {
			return 0, fmt.Errorf("xdm: decimal division by zero")
		}
		return x / y, nil
	case OpMod:
		if y == 0 && !isDouble {
			return 0, fmt.Errorf("xdm: modulus by zero")
		}
		return math.Mod(x, y), nil
	default:
		return 0, fmt.Errorf("xdm: unknown arithmetic operator %v", op)
	}
}

// Negate returns the numeric negation of a.
func Negate(a Atomic) (Atomic, error) {
	switch v := a.(type) {
	case Integer:
		return Integer(-v), nil
	case Decimal:
		return Decimal(-v), nil
	case Double:
		return Double(-v), nil
	case Untyped:
		c, err := Cast(v, TypeDouble)
		if err != nil {
			return nil, err
		}
		return Negate(c)
	default:
		return nil, fmt.Errorf("xdm: cannot negate %s", a.Type())
	}
}
