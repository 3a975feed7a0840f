package xqeval

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// plan_exec.go executes a flworPlan. All mutable run state lives here, in
// flworExec, created fresh per FLWOR execution — the plan itself is shared
// and immutable. Tuples stream through each segment's ops via a recursive
// feed (no intermediate []*scope materialization); only barriers (group by,
// order by) collect the tuple set, reusing the naive applyClause
// implementations so barrier semantics are byte-identical.

// flworExec is one execution of one FLWOR plan.
type flworExec struct {
	fp     *flworPlan
	states []opState
	// prog, when set, replaces the return clause in the final tuple sink
	// (rowprog.go) — the streaming text path only.
	prog *rowProgram
}

// opState is the lazily-filled per-run state of one op: the cached
// sequence of an invariant for/let, and the hash table of a hash join.
// transformed marks a partitioned scan whose gathered sequence differs
// from the plain shard concatenation (pruned, filtered, projected, or a
// partial-mode skip) — such sequences must not feed the statistics store.
type opState struct {
	done        bool
	transformed bool
	seq         xdm.Sequence
	hash        *hashTable
	// once/err serve a hoisted filter operand, the one state filled lazily
	// even on eager plans — where morsel workers share it.
	once sync.Once
	err  error
}

// tupleSink receives each tuple that survives a segment's ops.
type tupleSink func(t *scope) error

// execPlannedFLWOR runs the planned pipeline and materializes the result —
// the sequence-valued entry point evalFLWOR uses.
func execPlannedFLWOR(fp *flworPlan, env *scope) (xdm.Sequence, error) {
	var out xdm.Sequence
	err := execPlannedFLWORTo(fp, env, nil, func(v xdm.Sequence) error {
		out = append(out, v...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// execPlannedFLWORTo runs the planned pipeline, delivering each tuple's
// return value to emit as it is produced. The final segment streams
// straight from the tuple sink into emit — this is the cursor boundary
// EvalStream pulls from; earlier segments materialize for their barrier.
//
// Stats-built (eager) plans materialize each segment's invariant states and
// hash tables before its tuple loop, which enables two things the lazy path
// cannot do: an empty invariant source or build side proves the segment
// emits nothing, so the whole tuple loop is skipped; and with the shared
// state read-only from then on, an eligible segment can fan its outer scan
// out to morsel workers (parallel.go) without synchronizing on it.
func execPlannedFLWORTo(fp *flworPlan, env *scope, prog *rowProgram, emit func(xdm.Sequence) error) error {
	ex := &flworExec{fp: fp, states: make([]opState, fp.numStates), prog: prog}
	tuples := []*scope{env}
	for si, seg := range fp.segments {
		final := si == len(fp.segments)-1
		dead := false
		if fp.eager && len(tuples) > 0 {
			var err error
			dead, err = ex.prepare(seg.ops, tuples[0])
			if err != nil {
				return err
			}
		}
		if final {
			if dead {
				return nil
			}
			if cfg, ok := ex.canParallel(seg.ops, tuples); ok {
				_, err := ex.runParallel(seg.ops, tuples[0], cfg, true, emit)
				return err
			}
			var buf []byte
			for _, t := range tuples {
				err := ex.feed(seg.ops, 0, t, func(t2 *scope) error {
					v, err := ex.finalValue(t2, &buf)
					if err != nil {
						return err
					}
					return emit(v)
				})
				if err != nil {
					return err
				}
			}
			return nil
		}
		var next []*scope
		if !dead {
			if cfg, ok := ex.canParallel(seg.ops, tuples); ok {
				var err error
				next, err = ex.runParallel(seg.ops, tuples[0], cfg, false, nil)
				if err != nil {
					return err
				}
			} else {
				for _, t := range tuples {
					err := ex.feed(seg.ops, 0, t, func(t2 *scope) error {
						next = append(next, t2)
						return nil
					})
					if err != nil {
						return err
					}
				}
			}
		}
		if seg.barrier != nil {
			var err error
			next, err = applyClause(seg.barrier, next)
			if err != nil {
				return err
			}
		}
		tuples = next
	}
	return nil
}

// finalValue produces and charges what one surviving tuple emits: the
// return clause's value, or the row program's fused text row. buf is the
// calling goroutine's scratch for the latter.
func (ex *flworExec) finalValue(t *scope, buf *[]byte) (xdm.Sequence, error) {
	if err := t.checkCancel(); err != nil {
		return nil, err
	}
	if ex.prog != nil {
		return ex.prog.run(t, buf)
	}
	v, err := evalExpr(ex.fp.flwor.Return, t)
	if err != nil {
		return nil, err
	}
	if err := t.countRows(len(v)); err != nil {
		return nil, err
	}
	return v, nil
}

// prepare eagerly fills every invariant state in one segment's ops,
// evaluating against t (soundly: invariance means the expressions see
// identical bindings from every tuple). It reports dead=true as soon as an
// invariant for's source — hash build side included — is empty: no tuple
// can survive that op, so the caller skips the segment's tuple loop
// entirely. Freshly scanned sources feed the statistics store on the way
// past (stats.go).
func (ex *flworExec) prepare(ops []planOp, t *scope) (dead bool, err error) {
	for i := range ops {
		op := &ops[i]
		if !op.invariant {
			continue
		}
		st := &ex.states[op.stateIdx]
		switch op.kind {
		case opKindFor:
			var items xdm.Sequence
			if op.hash != nil {
				h, err := ex.hashTable(op, t)
				if err != nil {
					return false, err
				}
				items = h.items
			} else if items, err = ex.source(op, t); err != nil {
				return false, err
			}
			if len(items) == 0 {
				return true, nil
			}
		case opKindLet:
			if !st.done {
				s, err := evalExpr(op.letClause.Expr, t)
				if err != nil {
					return false, err
				}
				st.seq, st.done = s, true
			}
		}
	}
	return false, nil
}

// feed pushes one tuple through ops[i:], calling out for each survivor.
func (ex *flworExec) feed(ops []planOp, i int, t *scope, out tupleSink) error {
	if i == len(ops) {
		return out(t)
	}
	op := &ops[i]
	switch op.kind {
	case opKindFilter:
		ok, err := ex.evalFilter(op, t)
		if err != nil {
			return err
		}
		if !ok {
			t.prune(1)
			return nil
		}
		return ex.feed(ops, i+1, t, out)

	case opKindLet:
		var v xdm.Sequence
		if op.invariant {
			st := &ex.states[op.stateIdx]
			if !st.done {
				// Invariance means the expression sees identical bindings
				// from every tuple, so evaluating against the first one is
				// sound.
				s, err := evalExpr(op.letClause.Expr, t)
				if err != nil {
					return err
				}
				st.seq, st.done = s, true
			}
			v = st.seq
		} else {
			var err error
			v, err = evalExpr(op.letClause.Expr, t)
			if err != nil {
				return err
			}
		}
		return ex.feed(ops, i+1, t.bind(op.letClause.Var, v), out)

	case opKindFor:
		if err := t.checkCancel(); err != nil {
			return err
		}
		if op.hash != nil {
			h, err := ex.hashTable(op, t)
			if err != nil {
				return err
			}
			return ex.probeHash(ops, i, op, t, h, out)
		}
		var seq xdm.Sequence
		var err error
		if op.invariant {
			seq, err = ex.source(op, t)
		} else {
			seq, err = evalExpr(op.forClause.In, t)
		}
		if err != nil {
			return err
		}
		for idx, it := range seq {
			if err := t.countTuple(); err != nil {
				return err
			}
			nt := t.bind(op.forClause.Var, xdm.SequenceOf(it))
			if op.forClause.At != "" {
				nt = nt.bind(op.forClause.At, xdm.SequenceOf(xdm.Integer(idx+1)))
			}
			if err := ex.feed(ops, i+1, nt, out); err != nil {
				return err
			}
		}
		return nil
	}
	return dynErr("unknown plan op")
}

// evalFilter is evalEBV(op.cond) with hoisted operands (plan.go's
// operandState) evaluated once per FLWOR execution: on the first tuple to
// reach the filter, never before, so a query no tuple of which gets here
// raises none of the operand's errors — the same latitude as without the
// hoist.
func (ex *flworExec) evalFilter(op *planOp, t *scope) (bool, error) {
	if op.operandState == [2]int{-1, -1} {
		return evalEBV(op.cond, t)
	}
	if err := t.step(); err != nil {
		return false, err
	}
	b := op.cond.(*xquery.Binary)
	var sides [2]xdm.Sequence
	for i, operand := range [2]xquery.Expr{b.Left, b.Right} {
		var err error
		if idx := op.operandState[i]; idx < 0 {
			sides[i], err = evalExpr(operand, t)
		} else {
			st := &ex.states[idx]
			st.once.Do(func() {
				// Deaf to cancellation: the operand is pure, so nothing in
				// it blocks, and the slot outlives this tuple — a worker
				// whose sibling cancelled it would otherwise cache
				// context.Canceled for the merger's serial re-run (live
				// parent context, same states) to read.
				deaf := *t
				deaf.goCtx = nil
				st.seq, st.err = evalExpr(operand, &deaf)
			})
			sides[i], err = st.seq, st.err
		}
		if err != nil {
			return false, err
		}
	}
	v, err := applyBinary(b.Op, sides[0], sides[1])
	if err != nil {
		return false, err
	}
	return effectiveBool(v)
}

// source returns an invariant for's items, evaluated on the first tuple to
// need them and cached for the rest of this FLWOR execution.
func (ex *flworExec) source(op *planOp, t *scope) (xdm.Sequence, error) {
	st := &ex.states[op.stateIdx]
	if !st.done {
		var s xdm.Sequence
		var err error
		if op.part != nil {
			s, st.transformed, err = ex.gatherPartitioned(op, t)
		} else {
			s, err = evalExpr(op.forClause.In, t)
		}
		if err != nil {
			return nil, err
		}
		if !st.transformed {
			maybeObserveScan(t, op, s)
		}
		st.seq, st.done = s, true
	}
	return st.seq, nil
}

// hashTable returns a hash op's build table: the evaluation's shared one
// when the plan gave it a slot, else this FLWOR execution's own.
func (ex *flworExec) hashTable(op *planOp, t *scope) (*hashTable, error) {
	if op.hash.table >= 0 {
		return t.tables.get(op, t)
	}
	st := &ex.states[op.stateIdx]
	if st.hash == nil {
		items, err := ex.source(op, t)
		if err != nil {
			return nil, err
		}
		if st.hash, err = buildHashTable(op, t, items); err != nil {
			return nil, err
		}
	}
	return st.hash, nil
}

// evalTables is one evaluation's set of hash tables whose source and build
// key are evaluation-invariant (hashJoinSpec.table): each is built by the
// first FLWOR execution — serial, nested or morsel worker — that probes it,
// and only read from then on.
type evalTables struct {
	root   *scope
	tables []sharedTable
}

type sharedTable struct {
	mu    sync.Mutex
	built atomic.Pointer[hashTable]
}

// get returns op's table, building it on first use. The build runs on a
// copy of the evaluation's root scope — source and key read nothing the
// query binds, so every prober would build the same table, at the same
// scope depth — under the caller's context and counters. Only a finished
// table is kept: an error, cancellation above all, goes back to its caller
// and the next prober builds again. Concurrent probers wait on the lock
// rather than call the source again; the build cannot reach this table
// (its source holds no FLWOR, and a view's body is its own evaluation).
func (et *evalTables) get(op *planOp, t *scope) (*hashTable, error) {
	st := &et.tables[op.hash.table]
	if h := st.built.Load(); h != nil {
		return h, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if h := st.built.Load(); h != nil {
		return h, nil
	}
	bs := *et.root
	bs.goCtx, bs.counters = t.goCtx, t.counters
	items, err := evalExpr(op.forClause.In, &bs)
	if err != nil {
		return nil, err
	}
	maybeObserveScan(&bs, op, items)
	h, err := buildHashTable(op, &bs, items)
	if err != nil {
		return nil, err
	}
	st.built.Store(h)
	return h, nil
}

// execFilter evaluates a filter planned as a probe FLWOR (probeFilter): the
// items bound to its for variable are the filter's result. No return
// clause runs and no row is charged — the naive filter charges none.
func execFilter(fp *flworPlan, env *scope) (xdm.Sequence, error) {
	ex := &flworExec{fp: fp, states: make([]opState, fp.numStates)}
	var out xdm.Sequence
	err := ex.feed(fp.segments[0].ops, 0, env, func(t *scope) error {
		v, _ := t.lookupVar(filterVar)
		out = append(out, v...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// probeHash executes a hash-join for: per tuple evaluate the probe key and
// emit only the matching build items, in source order. Every candidate is
// re-verified under the exact comparison semantics, so bucket collisions
// (and the deliberately lossy key normalization) can only cost time, never
// change results. An empty probe (SQL NULL) matches nothing; the
// `if (fn:empty(…))` and `fn:not(fn:exists(…))` around a correlated lookup
// turn that into NULL padding and the anti-join. Against an empty table the
// probe is not evaluated at all, as the nested loop over no items
// evaluates no predicate.
func (ex *flworExec) probeHash(ops []planOp, i int, op *planOp, t *scope, h *hashTable, out tupleSink) error {
	if len(h.items) == 0 {
		return nil
	}
	probe, err := evalExpr(op.hash.probeExpr, t)
	if err != nil {
		return err
	}
	probeAtoms := xdm.Atomize(probe)
	matched := 0
	for _, ci := range h.candidates(probeAtoms, op.hash.valueCmp) {
		ok, err := verifyJoinPair(probeAtoms, h.keys[ci], op.hash.valueCmp)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		matched++
		if err := t.countTuple(); err != nil {
			return err
		}
		nt := t.bind(op.forClause.Var, xdm.SequenceOf(h.items[ci]))
		if err := ex.feed(ops, i+1, nt, out); err != nil {
			return err
		}
	}
	t.prune(int64(len(h.items) - matched))
	return nil
}

// verifyJoinPair applies the original comparison operator to one probe /
// build-key pair (both already atomized; atomization is idempotent).
func verifyJoinPair(probe, key xdm.Sequence, valueCmp bool) (bool, error) {
	var v xdm.Sequence
	var err error
	if valueCmp {
		v, err = evalValueCompare(probe, key, xdm.OpEq)
	} else {
		v, err = evalGeneralCompare(probe, key, xdm.OpEq)
	}
	if err != nil {
		return false, err
	}
	if v.Empty() {
		return false, nil
	}
	return bool(v[0].(xdm.Boolean)), nil
}

// hashTable is the build side of one hash join.
type hashTable struct {
	items xdm.Sequence
	// keys[i] is item i's atomized join key.
	keys []xdm.Sequence
	// buckets maps normalized key forms to item indices.
	buckets map[string][]int
	// residual lists items whose key cannot be normalized (booleans,
	// temporals, NaN-valued numerics, multi-item keys under `eq`); they
	// are verified against every probe, preserving naive error and
	// mixed-type comparison behavior for those values.
	residual []int
}

func buildHashTable(op *planOp, t *scope, items xdm.Sequence) (*hashTable, error) {
	h := &hashTable{
		items:   items,
		keys:    make([]xdm.Sequence, len(items)),
		buckets: make(map[string][]int, len(items)),
	}
	for i, it := range items {
		if i&255 == 0 {
			if err := t.checkCancel(); err != nil {
				return nil, err
			}
		}
		kseq, err := evalExpr(op.hash.buildExpr, t.bind(op.forClause.Var, xdm.SequenceOf(it)))
		if err != nil {
			return nil, err
		}
		key := xdm.Atomize(kseq)
		h.keys[i] = key
		if key.Empty() {
			// An empty key matches nothing under either comparison and can
			// raise no comparison error: drop the item entirely.
			continue
		}
		if op.hash.valueCmp && len(key) != 1 {
			// Value comparison against a multi-item key is a dynamic error
			// in the naive pipeline; keep the item where every probe will
			// trip over it.
			h.residual = append(h.residual, i)
			continue
		}
		forms, ok := normalizeKeyAtoms(key)
		if !ok {
			h.residual = append(h.residual, i)
			continue
		}
		for _, f := range forms {
			h.buckets[f] = append(h.buckets[f], i)
		}
	}
	return h, nil
}

// candidates returns the item indices a probe key must be verified
// against, ascending (= the naive inner-loop order). Unhashable probes
// degrade to scanning every item.
func (h *hashTable) candidates(probe xdm.Sequence, valueCmp bool) []int {
	if probe.Empty() {
		// Empty compares false against everything, errors never: no
		// candidates at all.
		return nil
	}
	if valueCmp && len(probe) != 1 {
		// The naive pipeline raises a singleton error on the first build
		// item it meets; scan so verification reproduces it.
		return h.allItems()
	}
	seen := make(map[int]bool, len(h.residual))
	var cand []int
	add := func(i int) {
		if !seen[i] {
			seen[i] = true
			cand = append(cand, i)
		}
	}
	for _, i := range h.residual {
		add(i)
	}
	for _, a := range probe {
		forms, ok := atomKeyForms(a.(xdm.Atomic))
		if !ok {
			return h.allItems()
		}
		for _, f := range forms {
			for _, i := range h.buckets[f] {
				add(i)
			}
		}
	}
	sort.Ints(cand)
	return cand
}

func (h *hashTable) allItems() []int {
	all := make([]int, len(h.items))
	for i := range all {
		all[i] = i
	}
	return all
}

// normalizeKeyAtoms returns every bucket form a key sequence should be
// filed under; ok is false if any atom has no normal form (the whole item
// then goes to the residual list).
func normalizeKeyAtoms(atoms xdm.Sequence) ([]string, bool) {
	var forms []string
	for _, a := range atoms {
		f, ok := atomKeyForms(a.(xdm.Atomic))
		if !ok {
			return nil, false
		}
		forms = append(forms, f...)
	}
	return forms, true
}

// atomKeyForms normalizes one atomic value into bucket-key strings chosen
// so that any two atoms the evaluator's promotion rules could find equal
// share at least one form:
//
//   - all numerics promote through float64, so they file under the double's
//     lexical form ("n:…");
//   - strings file under their lexical form ("s:…");
//   - untyped atomics compare as strings against strings/untyped and as
//     numbers against numerics, so they file under both applicable forms;
//   - booleans and temporals (which also compare lexically against
//     strings), plus anything NaN-valued (which OrderAtomic treats as equal
//     to every number), have no safe form and stay in the residual list.
func atomKeyForms(a xdm.Atomic) ([]string, bool) {
	switch t := a.Type(); {
	case t == xdm.TypeString:
		return []string{"s:" + a.Lexical()}, true
	case t.Numeric():
		d, err := xdm.Cast(a, xdm.TypeDouble)
		if err != nil || math.IsNaN(float64(d.(xdm.Double))) {
			return nil, false
		}
		return []string{"n:" + d.Lexical()}, true
	case t == xdm.TypeUntyped:
		if d, err := xdm.Cast(a, xdm.TypeDouble); err == nil {
			if math.IsNaN(float64(d.(xdm.Double))) {
				return nil, false
			}
			return []string{"s:" + a.Lexical(), "n:" + d.Lexical()}, true
		}
		return []string{"s:" + a.Lexical()}, true
	default:
		return nil, false
	}
}
