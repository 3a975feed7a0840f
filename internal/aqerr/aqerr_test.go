package aqerr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestKindRoundTrip(t *testing.T) {
	for k := KindUnknown; k <= KindInternal; k++ {
		if got := ParseKind(k.String()); got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if got := ParseKind("no-such-kind"); got != KindUnknown {
		t.Errorf("ParseKind of an unknown name = %v, want %v", got, KindUnknown)
	}
	if got := Kind(99).String(); got != "unknown" {
		t.Errorf("an out-of-range kind prints %q, want unknown", got)
	}
}

// flagErr is an error that knows its own retryability and fault class, as
// faultnet's injected errors do.
type flagErr struct{ transient, fault bool }

func (e flagErr) Error() string {
	return fmt.Sprintf("flag transient=%v fault=%v", e.transient, e.fault)
}
func (e flagErr) Transient() bool { return e.transient }
func (e flagErr) Fault() bool     { return e.fault }

func TestWrapClassifies(t *testing.T) {
	semantic := errors.New("no such column")
	classified := New(KindResourceLimit, "evaluate", errors.New("too many rows"))
	for _, c := range []struct {
		name string
		err  error
		kind Kind // KindUnknown: passed through unchanged
	}{
		{"canceled", context.Canceled, KindTimeout},
		{"deadline", fmt.Errorf("scan: %w", context.DeadlineExceeded), KindTimeout},
		{"transient", flagErr{transient: true, fault: true}, KindTransient},
		{"fault", flagErr{fault: true}, KindPermanent},
		{"semantic", semantic, KindUnknown},
		{"not a fault", flagErr{}, KindUnknown},
		{"already classified", fmt.Errorf("outer: %w", classified), KindUnknown},
	} {
		got := Wrap("data service X", c.err)
		var qe *QueryError
		switch {
		case c.kind == KindUnknown && got != c.err:
			t.Errorf("%s: Wrap = %v, want %v unchanged", c.name, got, c.err)
		case c.kind != KindUnknown && (!errors.As(got, &qe) || qe.Kind != c.kind || qe.Op != "data service X"):
			t.Errorf("%s: Wrap = %#v, want a %v QueryError for the op", c.name, got, c.kind)
		case !errors.Is(got, c.err):
			t.Errorf("%s: Wrap = %v no longer unwraps to its cause", c.name, got)
		}
	}
	if Wrap("op", nil) != nil {
		t.Error("Wrap(nil) is not nil")
	}
}

func TestTransientAndFaultThroughWrapping(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", err)) }
	for _, c := range []struct {
		name             string
		err              error
		transient, fault bool
	}{
		{"transient kind", New(KindTransient, "op", nil), true, true},
		{"permanent kind", New(KindPermanent, "op", nil), false, true},
		{"unavailable kind", New(KindUnavailable, "op", nil), false, true},
		{"internal kind", New(KindInternal, "op", nil), false, true},
		{"resource limit", New(KindResourceLimit, "op", nil), false, false},
		{"timeout kind", New(KindTimeout, "op", nil), false, false},
		{"self-described", flagErr{transient: true}, true, false},
		{"cancellation", context.Canceled, false, false},
		{"a fault wrapping a cancellation", New(KindPermanent, "op", context.Canceled), false, false},
		{"plain", errors.New("x"), false, false},
	} {
		for _, err := range []error{c.err, wrap(c.err)} {
			if got := Transient(err); got != c.transient {
				t.Errorf("%s: Transient(%v) = %v, want %v", c.name, err, got, c.transient)
			}
			if got := Fault(err); got != c.fault {
				t.Errorf("%s: Fault(%v) = %v, want %v", c.name, err, got, c.fault)
			}
		}
	}
	if Transient(nil) || Fault(nil) {
		t.Error("a nil error is transient or a fault")
	}
}

func TestRetryAfterHintOutermostWins(t *testing.T) {
	inner := &QueryError{Kind: KindUnavailable, Op: "admission", RetryAfter: time.Second}
	outer := &QueryError{Kind: KindUnavailable, Op: "execute", RetryAfter: 3 * time.Second, Err: fmt.Errorf("shed: %w", inner)}
	if got := RetryAfterHint(fmt.Errorf("call: %w", outer)); got != 3*time.Second {
		t.Errorf("RetryAfterHint = %v, want the outermost hint 3s", got)
	}
	unhinted := &QueryError{Kind: KindUnavailable, Op: "execute", Err: inner}
	if got := RetryAfterHint(unhinted); got != time.Second {
		t.Errorf("RetryAfterHint = %v, want the inner hint 1s past an unhinted wrapper", got)
	}
	if got := RetryAfterHint(errors.New("x")); got != 0 {
		t.Errorf("RetryAfterHint of an unhinted error = %v, want 0", got)
	}
}

func TestRecoverTurnsPanicIntoInternal(t *testing.T) {
	run := func() (err error) {
		defer Recover("query", &err)
		panic("boom")
	}
	err := run()
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Kind != KindInternal || qe.Op != "query" || !strings.Contains(err.Error(), "recovered panic: boom") {
		t.Fatalf("Recover gave %v, want an internal QueryError for the panic", err)
	}
	quiet := func() (err error) {
		defer Recover("query", &err)
		return nil
	}
	if err := quiet(); err != nil {
		t.Fatalf("Recover without a panic set %v", err)
	}
}
