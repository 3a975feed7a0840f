package server

import (
	"container/list"
	"context"
	"sync"
	"time"

	"repro/internal/aqerr"
	"repro/internal/wire"
)

// admission.go replaces the count-only admission semaphore with a
// cost-aware weighted one. Every execute is scored before it runs: the
// compiled artifact's cost estimate (qcache.CompiledQuery.Cost, cache-hot)
// divides by CostPerSlot into a slot weight, so a point lookup weighs 1
// and a large scan-join weighs many. The semaphore's capacity is
// MaxConcurrentQueries slots.
//
// Two layers of degradation, in order of onset:
//
//  1. Weighted admission — cheap queries keep flowing while an expensive
//     scan holds most of the capacity; an arriving query that does not fit
//     waits in a bounded FIFO queue, and an arrival that finds the queue
//     full is shed at once (typed unavailable, Retry-After hint).
//  2. Deadline-aware queue timeout — a waiter is shed (typed unavailable,
//     Retry-After hint) after AdmissionWait, or sooner when the client's
//     remaining deadline budget is shorter: work that cannot finish inside
//     the caller's deadline is never admitted.
//
// These two are all the overload contract (TestOverloadContract) needs:
// every shed is a queue-full or a queue-timeout shed, counted under
// exactly that reason (DESIGN.md, "Overload and degradation").

// admission is the weighted semaphore plus its queue.
type admission struct {
	capacity    int64
	costPerSlot int64
	maxWeight   int64
	queueLimit  int
	wait        time.Duration

	mu        sync.Mutex
	inFlight  int64      // weighted slots held
	queue     *list.List // FIFO of *waiter
	peak      int64
	queuePeak int64

	shedQueueFull    int64
	shedQueueTimeout int64
}

type waiter struct {
	weight int64
	ready  chan struct{} // closed under admission.mu when granted
}

func newAdmission(cfg Config) *admission {
	return &admission{
		capacity:    int64(cfg.MaxConcurrentQueries),
		costPerSlot: cfg.CostPerSlot,
		maxWeight:   cfg.MaxQueryWeight,
		queueLimit:  cfg.AdmissionQueue,
		wait:        cfg.AdmissionWait,
		queue:       list.New(),
	}
}

// weightFor converts a compiled cost estimate into admission slots:
// 1 + (cost-1)/CostPerSlot, clamped to MaxQueryWeight. A CostPerSlot of
// math.MaxInt64 weighs every query 1.
func (a *admission) weightFor(cost int64) int64 {
	if cost <= 1 {
		return 1
	}
	return min(1+(cost-1)/a.costPerSlot, a.maxWeight)
}

// shedErr builds the typed unavailable a shed query fails fast with.
func shedErr(format string, retryAfter time.Duration, args ...any) error {
	qe := aqerr.Errorf(aqerr.KindUnavailable, "admit", format, args...)
	qe.RetryAfter = retryAfter
	return qe
}

// admit blocks until weight slots are granted, the wait times out, or ctx
// ends. budget is the client's remaining deadline (0 = none): the queue
// wait never exceeds it, so a request that would be admitted only after
// its caller gave up is shed instead.
func (a *admission) admit(ctx context.Context, weight int64, budget time.Duration) error {
	a.mu.Lock()
	if a.queue.Len() == 0 && a.inFlight+weight <= a.capacity {
		a.grantDirectLocked(weight)
		a.mu.Unlock()
		return nil
	}
	if a.queue.Len() >= a.queueLimit {
		a.shedQueueFull++
		a.mu.Unlock()
		return shedErr("admission queue full (%d waiting)", a.wait, a.queueLimit)
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	el := a.queue.PushBack(w)
	if d := int64(a.queue.Len()); d > a.queuePeak {
		a.queuePeak = d
	}
	a.mu.Unlock()

	wait := a.wait
	deadlineShed := false
	if budget > 0 && budget < wait {
		wait = budget
		deadlineShed = true
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-w.ready:
		return nil
	case <-t.C:
		if !a.abandonWaiter(el, w, true) {
			return nil // granted while the timer fired
		}
		if deadlineShed {
			// The client's budget ran out first: its deadline is the real
			// failure, not server capacity.
			return aqerr.Wrap("admit", context.DeadlineExceeded)
		}
		return shedErr("admission timed out after %v (server saturated)", a.wait, wait)
	case <-ctx.Done():
		if !a.abandonWaiter(el, w, false) {
			return nil
		}
		return aqerr.Wrap("admit", ctx.Err())
	}
}

// abandonWaiter removes a timed-out or cancelled waiter from the queue.
// Returns false when the grant won the race — the caller holds its slots
// and must proceed. timedOut counts the abandonment as a queue-timeout
// shed rather than a caller cancellation.
func (a *admission) abandonWaiter(el *list.Element, w *waiter, timedOut bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	select {
	case <-w.ready:
		return false
	default:
	}
	a.queue.Remove(el)
	if timedOut {
		a.shedQueueTimeout++
	}
	// Removing a heavy queue head may unblock lighter successors.
	a.grantQueueLocked()
	return true
}

// grantDirectLocked books weight slots for an immediately admitted query.
func (a *admission) grantDirectLocked(weight int64) {
	a.inFlight += weight
	if a.inFlight > a.peak {
		a.peak = a.inFlight
	}
}

// grantQueueLocked admits queued waiters FIFO while they fit.
func (a *admission) grantQueueLocked() {
	for a.queue.Len() > 0 {
		front := a.queue.Front()
		w := front.Value.(*waiter)
		if a.inFlight+w.weight > a.capacity {
			return
		}
		a.queue.Remove(front)
		a.grantDirectLocked(w.weight)
		close(w.ready)
	}
}

// release returns weight slots and wakes whatever now fits.
func (a *admission) release(weight int64) {
	a.mu.Lock()
	a.inFlight -= weight
	a.grantQueueLocked()
	a.mu.Unlock()
}

// snapshot reads the admission gauges and shed counters into the fields of
// the server's Stats they own.
func (a *admission) snapshot() wire.ServerStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return wire.ServerStats{
		WeightedInFlight: a.inFlight,
		WeightedCapacity: a.capacity,
		WeightedPeak:     a.peak,
		QueueDepth:       int64(a.queue.Len()),
		QueuePeak:        a.queuePeak,
		ShedQueueFull:    a.shedQueueFull,
		ShedQueueTimeout: a.shedQueueTimeout,
	}
}
