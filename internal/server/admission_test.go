package server

// White-box tests for the weighted admission semaphore: cost→weight
// conversion and its clamp to the capacity, queue overflow and timeout
// sheds (typed, with Retry-After, each counted under its own reason),
// deadline-budget truncation of the queue wait, and FIFO hand-off on
// release.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/aqerr"
)

// admissionConfig mirrors what server.New hands newAdmission after
// normalization: every field explicit, no zero-default surprises.
func admissionConfig() Config {
	return Config{
		MaxConcurrentQueries: 4,
		CostPerSlot:          1000,
		MaxQueryWeight:       4,
		AdmissionWait:        20 * time.Millisecond,
		AdmissionQueue:       2,
	}
}

func TestWeightForConversion(t *testing.T) {
	a := newAdmission(admissionConfig())
	cases := []struct {
		cost, want int64
	}{
		{0, 1}, {1, 1}, {999, 1}, {1000, 1}, {1001, 2},
		{2500, 3}, {3001, 4},
		{1 << 40, 4}, // clamped at MaxQueryWeight
	}
	for _, c := range cases {
		if got := a.weightFor(c.cost); got != c.want {
			t.Errorf("weightFor(%d) = %d, want %d", c.cost, got, c.want)
		}
	}

	countOnly := admissionConfig()
	countOnly.CostPerSlot = math.MaxInt64
	a = newAdmission(countOnly)
	if got := a.weightFor(1 << 40); got != 1 {
		t.Errorf("count-only weightFor = %d, want 1", got)
	}
}

// shedKind asserts err is a typed unavailable with a positive Retry-After
// hint — the contract every shed must satisfy so clients can back off.
func shedKind(t *testing.T, err error, what string) *aqerr.QueryError {
	t.Helper()
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("%s: %v, want unavailable QueryError", what, err)
	}
	if aqerr.RetryAfterHint(err) <= 0 {
		t.Fatalf("%s: no Retry-After hint on %v", what, err)
	}
	return qe
}

func TestQueueFullShedsTyped(t *testing.T) {
	a := newAdmission(admissionConfig())
	ctx := context.Background()
	// Saturate capacity so later arrivals queue.
	if err := a.admit(ctx, 4, 0); err != nil {
		t.Fatal(err)
	}
	// Fill the queue with parked waiters.
	parked := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { parked <- a.admit(ctx, 1, 0) }()
	}
	waitForQueueDepth(t, a, 2)

	start := time.Now()
	err := a.admit(ctx, 1, 0)
	shedKind(t, err, "queue-full admit")
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("queue-full shed took %v, want immediate", d)
	}

	// The parked waiters shed on timeout, also typed.
	for i := 0; i < 2; i++ {
		shedKind(t, <-parked, "queue-timeout admit")
	}
	if st := a.snapshot(); st.ShedQueueFull != 1 || st.ShedQueueTimeout != 2 {
		t.Fatalf("shed counters full=%d timeout=%d, want 1/2", st.ShedQueueFull, st.ShedQueueTimeout)
	}
	a.release(4)
}

func waitForQueueDepth(t *testing.T, a *admission, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		a.mu.Lock()
		n := a.queue.Len()
		a.mu.Unlock()
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBudgetTruncatesWait pins deadline-budget propagation into the
// queue: a caller whose remaining budget is shorter than AdmissionWait
// waits only its budget, and the failure is its deadline (timeout kind,
// errors.Is DeadlineExceeded), not server capacity.
func TestBudgetTruncatesWait(t *testing.T) {
	cfg := admissionConfig()
	cfg.AdmissionWait = 5 * time.Second // queue wait alone would be slow
	a := newAdmission(cfg)
	if err := a.admit(context.Background(), 4, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := a.admit(context.Background(), 1, 10*time.Millisecond)
	elapsed := time.Since(start)
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindTimeout {
		t.Fatalf("budget-bounded admit: %v, want timeout QueryError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budget-bounded admit: %v, want errors.Is(DeadlineExceeded)", err)
	}
	if elapsed > time.Second {
		t.Fatalf("budget 10ms waited %v", elapsed)
	}
	a.release(4)
}

// TestMaxQueryWeightClampedToCapacity pins the weight clamp: a
// MaxQueryWeight above MaxConcurrentQueries is lowered to the capacity, so
// the heaviest query admits at once on an idle server instead of waiting
// out AdmissionWait and shedding as "server saturated".
func TestMaxQueryWeightClampedToCapacity(t *testing.T) {
	cfg := admissionConfig()
	cfg.MaxConcurrentQueries = 2
	cfg.MaxQueryWeight = 4
	cfg.AdmissionWait = 5 * time.Second
	a := newAdmission(cfg.withDefaults())
	w := a.weightFor(1 << 40)
	if w != 2 {
		t.Fatalf("heaviest weight = %d, want the capacity 2", w)
	}
	start := time.Now()
	if err := a.admit(context.Background(), w, 0); err != nil {
		t.Fatalf("heaviest query on an idle server: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("heaviest query admitted after %v, want at once", d)
	}
	a.release(w)
}

// TestNegativeLimitsTakeDefaults: withDefaults reads a negative session
// cap, capacity, queue length or queue wait as unset, like zero; a
// negative SessionIdleTimeout keeps its meaning, "never reap".
func TestNegativeLimitsTakeDefaults(t *testing.T) {
	got := Config{MaxSessions: -1, MaxConcurrentQueries: -1, AdmissionQueue: -1,
		AdmissionWait: -1, SessionIdleTimeout: -1}.withDefaults()
	want := Config{SessionIdleTimeout: -1}.withDefaults()
	if got != want {
		t.Fatalf("negative limits = %+v, want the defaults %+v", got, want)
	}
	if want.MaxConcurrentQueries != 256 || want.AdmissionQueue != 1024 || want.SessionIdleTimeout != -1 {
		t.Fatalf("defaults = %+v", want)
	}
}

// TestWeightedReleaseWakesQueue pins FIFO hand-off: releasing a heavy
// grant admits the parked waiters in order, and the weighted gauge
// returns to zero when everything releases.
func TestWeightedReleaseWakesQueue(t *testing.T) {
	a := newAdmission(admissionConfig())
	ctx := context.Background()
	if err := a.admit(ctx, 4, 0); err != nil {
		t.Fatal(err)
	}
	granted := make(chan int, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			if err := a.admit(ctx, 2, 0); err == nil {
				granted <- i
			} else {
				granted <- -1
			}
		}()
		waitForQueueDepth(t, a, i+1)
	}
	a.release(4) // both weight-2 waiters fit at once
	for i := 0; i < 2; i++ {
		if got := <-granted; got == -1 {
			t.Fatal("queued waiter shed instead of granted after release")
		}
	}
	a.release(2)
	a.release(2)
	if st := a.snapshot(); st.WeightedInFlight != 0 || st.WeightedPeak != 4 {
		t.Fatalf("after full release: inFlight=%d peak=%d, want 0/4", st.WeightedInFlight, st.WeightedPeak)
	}
}
