package xdm

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// untypedOperands are right-hand operands of every atomic type, built from
// one fuzzed lexical form and one fuzzed number.
func untypedOperands(lexical string, n float64) []Atomic {
	ops := []Atomic{
		Untyped(lexical), String(lexical), Boolean(n > 0),
		Integer(int64(n)), Decimal(n), Double(n),
		Double(math.NaN()), Double(math.Inf(-1)),
		Date{T: time.Date(2001, 2, 3, 0, 0, 0, 0, time.UTC)},
		Time{T: time.Date(0, 1, 1, 4, 5, 6, 0, time.UTC)},
		DateTime{T: time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)},
	}
	for _, typ := range []AtomicType{TypeInteger, TypeDecimal, TypeDouble, TypeDate, TypeBoolean} {
		if a, err := Cast(Untyped(lexical), typ); err == nil {
			ops = append(ops, a)
		}
	}
	return ops
}

// compareOutcome renders one comparison's result or error text.
func compareOutcome(ok bool, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(ok)
}

// FuzzCompareUntyped holds CompareUntyped to its definition: for every
// text, operand type and operator it returns what CompareAtomic returns for
// Untyped(text) — the same boolean or the same error text.
func FuzzCompareUntyped(f *testing.F) {
	for _, seed := range []struct {
		text string
		n    float64
	}{
		{" 5 ", 5}, {"5.0", 5}, {"-0", 0}, {"1e3", 1000}, {"NaN", 1}, {"INF", math.Inf(1)},
		{"-INF", -1}, {"abc", 2}, {"", 0}, {"10.5", 10.5}, {"2001-02-03", 3}, {"true", 1},
		{"9223372036854775807", 9.3e18}, {"0x1p-2", 0.25}, {"1_000", 1000}, {"+7", 7},
	} {
		f.Add(seed.text, seed.n)
	}
	f.Fuzz(func(t *testing.T, text string, n float64) {
		for _, b := range untypedOperands(text, n) {
			for op := OpEq; op <= OpGe; op++ {
				want := compareOutcome(CompareAtomic(Untyped(text), b, op))
				if got := compareOutcome(CompareUntyped(text, b, op)); got != want {
					t.Fatalf("CompareUntyped(%q, %v, %v) = %s, CompareAtomic says %s", text, b, op, got, want)
				}
			}
		}
	})
}

// UntypedNumber is castDouble's parser: the same value wherever the cast
// succeeds, and failure exactly where it fails.
func TestUntypedNumberMatchesCast(t *testing.T) {
	for _, s := range []string{" 5 ", "5.0", "-0", "1e3", "NaN", "INF", "-INF", "abc", "", "0x10", "inf", "Infinity"} {
		f, ok := UntypedNumber(s)
		d, err := Cast(Untyped(s), TypeDouble)
		if ok != (err == nil) {
			t.Fatalf("UntypedNumber(%q) ok=%v, Cast error %v", s, ok, err)
		}
		if ok && math.Float64bits(f) != math.Float64bits(float64(d.(Double))) && !(math.IsNaN(f) && math.IsNaN(float64(d.(Double)))) {
			t.Fatalf("UntypedNumber(%q) = %v, Cast gives %v", s, f, d)
		}
	}
}
