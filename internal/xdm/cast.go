package xdm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Cast converts an atomic value to the target type following the XQuery
// casting rules the generated queries depend on (xs:integer(...),
// xs:decimal(...), etc.). Lexical forms are trimmed of surrounding
// whitespace, as XML Schema's whiteSpace=collapse facet requires.
func Cast(a Atomic, target AtomicType) (Atomic, error) {
	if a.Type() == target {
		return a, nil
	}
	switch target {
	case TypeString:
		return String(a.Lexical()), nil
	case TypeUntyped:
		return Untyped(a.Lexical()), nil
	case TypeBoolean:
		return castBoolean(a)
	case TypeInteger:
		return castInteger(a)
	case TypeDecimal:
		return castDecimal(a)
	case TypeDouble:
		return castDouble(a)
	case TypeDate:
		return castTemporal(a, TypeDate)
	case TypeTime:
		return castTemporal(a, TypeTime)
	case TypeDateTime:
		return castTemporal(a, TypeDateTime)
	default:
		return nil, fmt.Errorf("xdm: cannot cast %s to %s", a.Type(), target)
	}
}

func castBoolean(a Atomic) (Atomic, error) {
	switch v := a.(type) {
	case Integer:
		return Boolean(v != 0), nil
	case Decimal:
		return Boolean(v != 0), nil
	case Double:
		return Boolean(v == v && v != 0), nil
	case String, Untyped:
		switch strings.TrimSpace(a.Lexical()) {
		case "true", "1":
			return Boolean(true), nil
		case "false", "0":
			return Boolean(false), nil
		default:
			return nil, castErr(a, TypeBoolean)
		}
	default:
		return nil, castErr(a, TypeBoolean)
	}
}

func castInteger(a Atomic) (Atomic, error) {
	switch v := a.(type) {
	case Boolean:
		if v {
			return Integer(1), nil
		}
		return Integer(0), nil
	case Decimal:
		return Integer(int64(math.Trunc(float64(v)))), nil
	case Double:
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, castErr(a, TypeInteger)
		}
		return Integer(int64(math.Trunc(f))), nil
	case String, Untyped:
		n, ok := parseInteger(a.Lexical())
		if !ok {
			return nil, castErr(a, TypeInteger)
		}
		return Integer(n), nil
	default:
		return nil, castErr(a, TypeInteger)
	}
}

// parseInteger is the xs:integer a string or untypedAtomic of this lexical
// form casts to. SQL tools routinely push "10.0" at integer columns, so a
// decimal lexical whose value is integral is accepted.
func parseInteger(lexical string) (int64, bool) {
	s := strings.TrimSpace(lexical)
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, true
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f != math.Trunc(f) {
		return 0, false
	}
	return int64(f), true
}

func castDecimal(a Atomic) (Atomic, error) {
	switch v := a.(type) {
	case Boolean:
		if v {
			return Decimal(1), nil
		}
		return Decimal(0), nil
	case Integer:
		return Decimal(float64(v)), nil
	case Double:
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, castErr(a, TypeDecimal)
		}
		return Decimal(f), nil
	case String, Untyped:
		f, ok := parseDecimal(a.Lexical())
		if !ok {
			return nil, castErr(a, TypeDecimal)
		}
		return Decimal(f), nil
	default:
		return nil, castErr(a, TypeDecimal)
	}
}

// parseDecimal is the xs:decimal a string or untypedAtomic of this lexical
// form casts to.
func parseDecimal(lexical string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(lexical), 64)
	return f, err == nil
}

func castDouble(a Atomic) (Atomic, error) {
	switch v := a.(type) {
	case Boolean:
		if v {
			return Double(1), nil
		}
		return Double(0), nil
	case Integer:
		return Double(float64(v)), nil
	case Decimal:
		return Double(float64(v)), nil
	case String, Untyped:
		f, ok := UntypedNumber(a.Lexical())
		if !ok {
			return nil, castErr(a, TypeDouble)
		}
		return Double(f), nil
	default:
		return nil, castErr(a, TypeDouble)
	}
}

// UntypedNumber is the xs:double an untypedAtomic (or string) of this
// lexical form casts to — Cast's own parser, without boxing either side;
// ok is false where the cast fails.
func UntypedNumber(lexical string) (f float64, ok bool) {
	s := strings.TrimSpace(lexical)
	switch s {
	case "INF":
		return math.Inf(1), true
	case "-INF":
		return math.Inf(-1), true
	case "NaN":
		return math.NaN(), true
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

var temporalLayouts = map[AtomicType][]string{
	TypeDate:     {"2006-01-02"},
	TypeTime:     {"15:04:05.999999999", "15:04:05"},
	TypeDateTime: {"2006-01-02T15:04:05.999999999", "2006-01-02T15:04:05", "2006-01-02 15:04:05"},
}

func castTemporal(a Atomic, target AtomicType) (Atomic, error) {
	switch v := a.(type) {
	case Date:
		if target == TypeDateTime {
			return DateTime{T: v.T}, nil
		}
	case DateTime:
		switch target {
		case TypeDate:
			y, m, d := v.T.Date()
			return Date{T: time.Date(y, m, d, 0, 0, 0, 0, time.UTC)}, nil
		case TypeTime:
			return Time{T: time.Date(0, 1, 1, v.T.Hour(), v.T.Minute(), v.T.Second(), v.T.Nanosecond(), time.UTC)}, nil
		}
	case String, Untyped:
		s := strings.TrimSpace(a.Lexical())
		for _, layout := range temporalLayouts[target] {
			if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
				switch target {
				case TypeDate:
					return Date{T: t}, nil
				case TypeTime:
					return Time{T: t}, nil
				case TypeDateTime:
					return DateTime{T: t}, nil
				}
			}
		}
		_ = v
	}
	return nil, castErr(a, target)
}

func castErr(a Atomic, target AtomicType) error {
	return fmt.Errorf("xdm: cannot cast %s %q to %s", a.Type(), a.Lexical(), target)
}

// ParseAtomic parses a lexical form directly into the given type; it is the
// entry point for reading typed column values from XML payloads and from
// the text-delimited result format.
func ParseAtomic(lexical string, t AtomicType) (Atomic, error) {
	// Well-formed forms of the common column types parse without boxing
	// an intermediate xs:untypedAtomic (decoders call this once per cell);
	// anything else takes Cast's path — same parsers, plus its whitespace
	// trimming, leniency and error text.
	switch t {
	case TypeString:
		return String(lexical), nil
	case TypeInteger:
		if n, err := strconv.ParseInt(lexical, 10, 64); err == nil {
			return Integer(n), nil
		}
	case TypeDecimal:
		if f, err := strconv.ParseFloat(lexical, 64); err == nil {
			return Decimal(f), nil
		}
	}
	return Cast(Untyped(lexical), t)
}
