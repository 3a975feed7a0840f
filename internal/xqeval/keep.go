package xqeval

import (
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// keep.go keeps finished closed builds with the plan. An invariant let's
// value or a hash join's build table (join or correlated lookup) whose
// expression is closed — it reads no variable bound outside it, no external
// parameter and no context item, calls no clock function, and reads data
// only through zero-argument data services — is the same in every
// evaluation of the plan while the engine's registrations stand. Its first
// successful build is kept on the plan; later evaluations reuse it at the
// point where they would have built it, and are charged what the build
// charged. DESIGN.md, "Values kept with the plan", states the rules.

// keptSlot is one closed build of a plan: the data services it reads
// and a let's expression (fixed at plan time), and its kept value, if any.
type keptSlot struct {
	srcs []funcKey
	let  xquery.Expr
	v    atomic.Pointer[keptValue]
}

// keptBudget is an engine's budget for kept values: the rows its
// registered row sets hold, and the items its plans' kept values hold
// together. Kept values point to it rather than to their engine, so a
// plan's kept values reach no registered function, and through it no
// cache that holds the plan.
type keptBudget struct{ rows, items atomic.Int64 }

// keptRelease holds a plan's slots for the finalizer that returns their
// kept values' shares to their engines' budgets once the plan is
// collected. Only the plan refers to it, and nothing it reaches refers to
// the plan, so it is collected with the plan.
type keptRelease struct{ slots []keptSlot }

// newKeptRelease sets slots up to be released with the plan that holds
// the result.
func newKeptRelease(slots []keptSlot) *keptRelease {
	r := &keptRelease{slots}
	runtime.SetFinalizer(r, func(r *keptRelease) {
		for i := range r.slots {
			if kv := r.slots[i].v.Swap(nil); kv != nil {
				kv.budget.items.Add(-kv.size)
			}
		}
	})
	return r
}

// keptValue is one finished build, valid for the engine whose budget it
// holds a share of, at epoch.
type keptValue struct {
	budget *keptBudget
	epoch  uint64
	// depth is the MaxDepth the build ran under (0 = unlimited): no scope
	// of the build was deeper.
	depth int64
	// charges is what the build added to its evaluation's counters.
	charges evalCounters
	// size is the value's share of the engine's kept-items budget.
	size  int64
	seq   xdm.Sequence // a let's value
	table *hashTable   // a hash join's build table
}

// keepTicket is a build in progress whose value may be kept: the epoch the
// engine was at, and the counters before the build.
type keepTicket struct {
	slot   *keptSlot
	epoch  uint64
	before evalCounters
}

// closedBuild reports whether e is closed once v (may be "") is bound: it
// reads no other variable and no context item from outside, calls only
// builtins other than the clock functions and constructor casts, and calls
// data services only with no arguments. It appends the data services it
// calls to srcs.
func (pc *planCtx) closedBuild(e xquery.Expr, v string, srcs []funcKey) ([]funcKey, bool) {
	for name := range xquery.FreeVars(e) {
		if name != v {
			return nil, false
		}
	}
	if readsOuterContext(e) {
		return nil, false
	}
	ok := true
	xquery.WalkExprs(e, func(x xquery.Expr) bool {
		fc, call := x.(*xquery.FuncCall)
		if !call || !ok {
			return ok
		}
		prefix, local := xquery.FuncName(fc.Name)
		if _, cast := castTargets[fc.Name]; cast && prefix == "xs" {
			return true
		}
		if ns, ds := pc.prefixes[prefix]; ds {
			k := funcKey{ns, local}
			if ok = len(fc.Args) == 0; ok && !slices.Contains(srcs, k) {
				srcs = append(srcs, k)
			}
			return ok
		}
		// fn:current-date, -time and -dateTime change between evaluations.
		_, builtin := builtins[fc.Name]
		ok = builtin && !strings.HasPrefix(fc.Name, "fn:current-")
		return ok
	})
	return srcs, ok
}

// readsOuterContext reports whether e reads the context item it is
// evaluated under: a `.` or relative path outside the predicates and path
// steps that rebind it.
func readsOuterContext(e xquery.Expr) bool {
	reads := false
	xquery.WalkExprs(e, func(x xquery.Expr) bool {
		if reads {
			return false
		}
		switch n := x.(type) {
		case *xquery.ContextItem, *xquery.RelPath:
			reads = true
		case *xquery.Path:
			reads = n.Base == nil || readsOuterContext(n.Base)
			return false
		case *xquery.Filter:
			reads = readsOuterContext(n.Base)
			return false
		}
		return !reads
	})
	return reads
}

// keepHash returns the planOp.keep of a hash for whose source and build
// key are closed, else 0.
func (pc *planCtx) keepHash(p *Plan, c *xquery.For, spec *hashJoinSpec) int {
	var buf [4]funcKey
	srcs, ok := pc.closedBuild(c.In, "", buf[:0])
	if ok {
		srcs, ok = pc.closedBuild(spec.buildExpr, c.Var, srcs)
	}
	if !ok {
		return 0
	}
	return p.addKeep(srcs, nil)
}

// addKeep gives a closed build — a let's when let is set — a slot on the
// plan, returning its planOp.keep: 1 + the slot's index.
func (p *Plan) addKeep(srcs []funcKey, let xquery.Expr) int {
	p.kept = append(p.kept, keptSlot{srcs: slices.Clone(srcs), let: let})
	return len(p.kept)
}

// keptLet reports whether e is a kept let's expression.
func (p *Plan) keptLet(e xquery.Expr) bool {
	for i := range p.kept {
		if p.kept[i].let == e {
			return true
		}
	}
	return false
}

// reuse returns the kept value of planOp.keep k when this evaluation may use it in
// place of a build, after charging the build's charges to the evaluation's
// counters. It may not when the value is stale (another engine, or
// registrations changed since), when the evaluation's MaxDepth is tighter
// than the build's, or when the charges would cross MaxRows or MaxTuples —
// then the caller builds as it would have, and trips where it would have.
func (n *scope) reuse(k int) *keptValue {
	if k == 0 {
		return nil
	}
	kv := n.st.plan.kept[k-1].v.Load()
	c, e := n.st.counters, n.st.engine
	if kv == nil || c == nil || kv.budget != e.kept || kv.epoch != e.epoch.Load() {
		return nil
	}
	lim, ch := &n.st.limits, &kv.charges
	if lim.MaxDepth > 0 && (kv.depth == 0 || kv.depth > lim.MaxDepth) ||
		lim.MaxTuples > 0 && c.tuples+ch.tuples > lim.MaxTuples ||
		lim.MaxRows > 0 && c.rows+ch.rows > lim.MaxRows {
		return nil
	}
	c.steps += ch.steps
	c.pruned += ch.pruned
	c.tuples += ch.tuples
	c.rows += ch.rows
	e.m.keptReuses.Inc()
	return kv
}

// startKeep opens a build of planOp.keep k (none when 0): the ticket is
// empty when the build's value may not be kept — the engine has
// middleware, or a source it reads is not a registered row set or is
// partitioned.
func (n *scope) startKeep(k int) keepTicket {
	c, e := n.st.counters, n.st.engine
	if k == 0 || c == nil || e == nil {
		return keepTicket{}
	}
	slot := &n.st.plan.kept[k-1]
	epoch, ok := e.keepEpoch(slot.srcs)
	if !ok {
		return keepTicket{}
	}
	return keepTicket{slot: slot, epoch: epoch, before: *c}
}

// finishKeep keeps a finished build's value (seq or table) on the plan
// when its ticket allows, no registration changed while it ran, no other
// evaluation kept one first, and the value fits the engine's budget once
// a stale value in the slot has left it.
func (n *scope) finishKeep(tk keepTicket, seq xdm.Sequence, table *hashTable) {
	e := n.st.engine
	if tk.slot == nil || e.epoch.Load() != tk.epoch {
		return
	}
	c := n.st.counters
	kv := &keptValue{budget: e.kept, epoch: tk.epoch, depth: n.st.limits.MaxDepth, seq: seq, table: table,
		charges: evalCounters{steps: c.steps - tk.before.steps, pruned: c.pruned - tk.before.pruned,
			rows: c.rows - tk.before.rows, tuples: c.tuples - tk.before.tuples}}
	if table != nil {
		kv.size = int64(len(table.items))
	} else {
		kv.size = int64(len(seq))
		for _, it := range seq {
			if el, ok := it.(*xdm.Element); ok {
				kv.size += int64(len(el.Children))
			}
		}
	}
	if old := tk.slot.v.Load(); old != nil {
		if old.budget == e.kept && old.epoch == e.epoch.Load() {
			return
		}
		if tk.slot.v.CompareAndSwap(old, nil) {
			old.budget.items.Add(-old.size)
		}
	}
	if !e.reserveKept(kv.size) {
		return
	}
	if !tk.slot.v.CompareAndSwap(nil, kv) {
		e.kept.items.Add(-kv.size)
		return
	}
	e.m.keptBuilds.Inc()
}

// keepEpoch returns the registration epoch under which a build reading
// srcs may be kept, and whether one may: the engine has no middleware, and
// every source is a registered, unpartitioned row set.
func (e *Engine) keepEpoch(srcs []funcKey) (uint64, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.middlewares) > 0 {
		return 0, false
	}
	for _, k := range srcs {
		if reg := e.funcs[k]; reg == nil || reg.rows < 0 || e.partitions[k] != nil {
			return 0, false
		}
	}
	return e.epoch.Load(), true
}

// reserveKept takes n items of the kept-values budget — the rows the
// engine's registered row sets hold, across all of its plans — if they
// are free.
func (e *Engine) reserveKept(n int64) bool {
	for {
		cur := e.kept.items.Load()
		if cur+n > e.kept.rows.Load() {
			return false
		}
		if e.kept.items.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}
