// Package aqerr defines the typed error vocabulary of the resilience
// layer. Once query processing spans a wire (the paper's driver talks to a
// remote DSP server for both metadata and data), infrastructure failures
// become part of the query processor's contract: callers need to know
// whether an error is worth retrying, whether the backend is down, or
// whether the query itself is at fault. QueryError carries that
// classification from wherever a failure is first seen — the metadata
// fetch, a data service call, an evaluator resource guard, or a recovered
// panic at the driver boundary — up through database/sql unchanged.
//
// The package is a leaf: catalog, xqeval, faultnet, resilient, driver and
// the facade all share it without import cycles.
package aqerr

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Kind classifies a QueryError for programmatic handling.
type Kind int

// Error kinds, ordered roughly by how a caller should react.
const (
	// KindUnknown is an unclassified failure.
	KindUnknown Kind = iota
	// KindTransient marks a failure that a retry may fix (network blip,
	// injected transient fault, recovered data-service panic).
	KindTransient
	// KindPermanent marks a failure retries cannot fix (backend rejects
	// the call deterministically).
	KindPermanent
	// KindUnavailable marks fast-fail conditions: an open circuit breaker,
	// or retries exhausted against a failing backend.
	KindUnavailable
	// KindTimeout marks context deadline expiry or cancellation.
	KindTimeout
	// KindResourceLimit marks a query aborted by a resource guard
	// (max rows, max tuples, recursion depth).
	KindResourceLimit
	// KindInternal marks a recovered panic at the driver boundary — an
	// engine bug surfaced as a SQL error instead of a dead process.
	KindInternal
)

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case KindPermanent:
		return "permanent"
	case KindUnavailable:
		return "unavailable"
	case KindTimeout:
		return "timeout"
	case KindResourceLimit:
		return "resource-limit"
	case KindInternal:
		return "internal"
	default:
		return "unknown"
	}
}

// ParseKind inverts Kind.String — how the wire protocol reconstructs a
// typed error kind on the client side of a server boundary.
func ParseKind(s string) Kind {
	switch s {
	case "transient":
		return KindTransient
	case "permanent":
		return KindPermanent
	case "unavailable":
		return KindUnavailable
	case "timeout":
		return KindTimeout
	case "resource-limit":
		return KindResourceLimit
	case "internal":
		return KindInternal
	default:
		return KindUnknown
	}
}

// QueryError is the typed error the resilience layer surfaces through the
// driver and facade.
type QueryError struct {
	Kind Kind
	// Op names the failing operation ("metadata lookup CUSTOMERS",
	// "data service PAYMENTS", "evaluate").
	Op  string
	Err error
	// RetryAfter is an optional backoff hint attached to shed responses
	// (KindUnavailable from admission control): how long the origin
	// suggests waiting before retrying. Zero means no hint. Clients treat
	// a hinted unavailable as retriable; an unhinted one (session gone,
	// breaker open) as retriable only from scratch.
	RetryAfter time.Duration
}

// Error implements error.
func (e *QueryError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("aqualogic: %s: %s error", e.Op, e.Kind)
	}
	return fmt.Sprintf("aqualogic: %s: %s: %v", e.Op, e.Kind, e.Err)
}

// Unwrap exposes the cause, so errors.Is(err, context.DeadlineExceeded)
// and friends keep working through the classification wrapper.
func (e *QueryError) Unwrap() error { return e.Err }

// New builds a QueryError.
func New(kind Kind, op string, err error) *QueryError {
	return &QueryError{Kind: kind, Op: op, Err: err}
}

// Errorf builds a QueryError with a formatted message cause.
func Errorf(kind Kind, op, format string, args ...any) *QueryError {
	return &QueryError{Kind: kind, Op: op, Err: fmt.Errorf(format, args...)}
}

// transienter is implemented by errors that know their own retryability
// (faultnet's injected errors in particular).
type transienter interface{ Transient() bool }

// faulter is implemented by errors that represent infrastructure faults
// rather than query-semantic failures; circuit breakers count these.
type faulter interface{ Fault() bool }

// Transient reports whether err is worth retrying: a QueryError of
// KindTransient, or any error in the chain implementing
// `Transient() bool` true.
func Transient(err error) bool {
	for e := err; e != nil; e = errors.Unwrap(e) {
		if qe, ok := e.(*QueryError); ok && qe.Kind == KindTransient {
			return true
		}
		if t, ok := e.(transienter); ok {
			return t.Transient()
		}
	}
	return false
}

// Fault reports whether err represents an infrastructure fault (the class
// a circuit breaker should count) as opposed to a query-semantic error or
// a caller-initiated cancellation.
func Fault(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	for e := err; e != nil; e = errors.Unwrap(e) {
		if f, ok := e.(faulter); ok {
			return f.Fault()
		}
		if qe, ok := e.(*QueryError); ok {
			switch qe.Kind {
			case KindTransient, KindPermanent, KindUnavailable, KindInternal:
				return true
			}
		}
	}
	return false
}

// Wrap classifies err under op: context errors become KindTimeout,
// transient errors KindTransient, infrastructure faults KindPermanent, and
// anything else passes through unchanged (query-semantic errors keep
// their own types). Already-classified QueryErrors pass through.
func Wrap(op string, err error) error {
	if err == nil {
		return nil
	}
	var qe *QueryError
	if errors.As(err, &qe) {
		return err
	}
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return &QueryError{Kind: KindTimeout, Op: op, Err: err}
	case Transient(err):
		return &QueryError{Kind: KindTransient, Op: op, Err: err}
	case Fault(err):
		return &QueryError{Kind: KindPermanent, Op: op, Err: err}
	default:
		return err
	}
}

// RetryAfterHint extracts the outermost RetryAfter hint in err's chain —
// the first QueryError carrying one, unwrapping from err — or zero when
// none does.
func RetryAfterHint(err error) time.Duration {
	for e := err; e != nil; e = errors.Unwrap(e) {
		if qe, ok := e.(*QueryError); ok && qe.RetryAfter > 0 {
			return qe.RetryAfter
		}
	}
	return 0
}

// Recover converts an in-flight panic into a KindInternal QueryError —
// the driver-boundary guard that turns engine panics into SQL errors
// instead of killing the embedding process. Use as:
//
//	defer aqerr.Recover("query", &err)
func Recover(op string, errp *error) {
	if r := recover(); r != nil {
		*errp = Errorf(KindInternal, op, "recovered panic: %v", r)
	}
}
