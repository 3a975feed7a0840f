package xqeval

import (
	"math"
	"slices"
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
	// (rowprog.go), and its rows go to w — the streaming text path only.
	prog *rowProgram
	w    *rowWriter
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
	err := execPlannedFLWORTo(fp, env, nil, nil, func(v xdm.Sequence) error {
		out = append(out, v...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// execPlannedFLWORTo runs the planned pipeline, delivering each tuple's
// return value to emit as it is produced — or, with a row program, each
// tuple's text row to w. The final segment streams straight from the tuple
// sink into emit or w — this is the cursor boundary EvalStream pulls from;
// earlier segments materialize for their barrier.
//
// Stats-built (eager) plans materialize each segment's invariant states and
// hash tables before its tuple loop, which enables two things the lazy path
// cannot do: an empty invariant source or build side proves the segment
// emits nothing, so the whole tuple loop is skipped; and with the shared
// state read-only from then on, an eligible segment can fan its outer scan
// out to morsel workers (parallel.go) without synchronizing on it.
func execPlannedFLWORTo(fp *flworPlan, env *scope, prog *rowProgram, w *rowWriter, emit func(xdm.Sequence) error) error {
	ex := &flworExec{fp: fp, states: make([]opState, fp.numStates), prog: prog, w: w}
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
			if ex.canParallel(seg.ops, tuples) {
				_, err := ex.runParallel(seg.ops, tuples[0], true, emit)
				return err
			}
			var sink tupleSink
			if prog != nil {
				sink = func(t2 *scope) error {
					if err := prog.run(t2, w.open()); err != nil {
						return err
					}
					return w.end()
				}
			} else {
				sink = func(t2 *scope) error {
					v, err := ex.finalValue(t2)
					if err != nil {
						return err
					}
					return emit(v)
				}
			}
			var buf [16]*scope
			cs := ex.cells(seg.ops, &buf)
			for _, t := range tuples {
				if err := ex.feed(seg.ops, 0, t, sink, cs); err != nil {
					return err
				}
			}
			return nil
		}
		var next []*scope
		if !dead {
			if ex.canParallel(seg.ops, tuples) {
				var err error
				next, err = ex.runParallel(seg.ops, tuples[0], false, nil)
				if err != nil {
					return err
				}
			} else {
				for _, t := range tuples {
					err := ex.feed(seg.ops, 0, t, func(t2 *scope) error {
						next = append(next, t2)
						return nil
					}, nil)
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

// cells are a transient final segment's tuple cells: slot 2i holds the one
// cell op i rebinds for every tuple after the first, 2i+1 its at
// variable's. A segment is transient when its sink is done with a tuple
// before the next is bound: a row program copies it into text, a
// constructor into a new element, and no state outlives the tuple (a hash
// build, invariant or hoisted operand reads no FLWOR-local variable). Any
// other return — `return $x` hands out the cell's item — and every
// collected tuple keeps fresh cells: nil cells.
type cells []*scope

// cells returns the final segment's cells, on buf when they fit.
func (ex *flworExec) cells(ops []planOp, buf *[16]*scope) cells {
	if _, ctor := ex.fp.flwor.Return.(*xquery.ElementCtor); !ctor && ex.prog == nil {
		return nil
	}
	if 2*len(ops) <= len(buf) {
		return buf[:2*len(ops)]
	}
	return make(cells, 2*len(ops))
}

// bind binds name under t to value, or to it alone when it is set: in a
// fresh cell, or in slot k's, which the first tuple allocates.
func (cs cells) bind(k int, t *scope, name string, value xdm.Sequence, it xdm.Item) *scope {
	if cs == nil {
		if it != nil {
			return t.bindItem(name, it)
		}
		return t.bind(name, value)
	}
	if cs[k] == nil {
		cs[k] = new(scope)
	}
	c := cs[k]
	*c = scope{parent: t, st: t.st, name: name, value: value, ctx: t.ctx, depth: t.depth + 1}
	if it != nil {
		c.item[0] = it
		c.value = c.item[:]
	}
	return c
}

// finalValue produces and charges the return clause's value for one
// surviving tuple (a row program's text row is its run).
func (ex *flworExec) finalValue(t *scope) (xdm.Sequence, error) {
	if err := t.checkCancel(); err != nil {
		return nil, err
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

// feed pushes one tuple through ops[i:], calling out for each survivor,
// binding in cs.
func (ex *flworExec) feed(ops []planOp, i int, t *scope, out tupleSink, cs cells) error {
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
		return ex.feed(ops, i+1, t, out, cs)

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
		return ex.feed(ops, i+1, cs.bind(2*i, t, op.letClause.Var, v, nil), out, cs)

	case opKindFor:
		if err := t.checkCancel(); err != nil {
			return err
		}
		if op.hash != nil {
			h, err := ex.hashTable(op, t)
			if err != nil {
				return err
			}
			return ex.probeHash(ops, i, op, t, h, out, cs)
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
			nt := cs.bind(2*i, t, op.forClause.Var, nil, it)
			if op.forClause.At != "" {
				nt = cs.bind(2*i+1, nt, op.forClause.At, nil, xdm.Integer(idx+1))
			}
			if err := ex.feed(ops, i+1, nt, out, cs); err != nil {
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
// hoist. A filter with a column kernel runs it when the tuple allows.
func (ex *flworExec) evalFilter(op *planOp, t *scope) (bool, error) {
	if op.column != nil {
		if ok, handled, err := ex.columnFilter(op, t); handled {
			return ok, err
		}
	}
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
		if op.operandState[i] < 0 {
			sides[i], err = evalExpr(operand, t)
		} else {
			sides[i], err = ex.operand(op, i, t)
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

// operand returns a filter's hoisted operand, evaluated by the first call
// and atomized — comparison and arithmetic atomize their operands anyway,
// so the column kernel reads atoms without atomizing per tuple.
func (ex *flworExec) operand(op *planOp, side int, t *scope) (xdm.Sequence, error) {
	st := &ex.states[op.operandState[side]]
	st.once.Do(func() {
		b := op.cond.(*xquery.Binary)
		// Deaf to cancellation: the operand is pure, so nothing in it
		// blocks, and the slot outlives this tuple — a worker whose sibling
		// cancelled it would otherwise cache context.Canceled for the
		// merger's serial re-run (live parent context, same states) to read.
		var v xdm.Sequence
		v, st.err = evalExpr([2]xquery.Expr{b.Left, b.Right}[side], t.on(nil, t.st.counters))
		st.seq = xdm.Atomize(v)
	})
	return st.seq, st.err
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
		return t.st.tables.get(op, t)
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
// scope depth — with its own state under the caller's context and
// counters. Only a finished table is kept: an error, cancellation above
// all, goes back to its caller and the next prober builds again.
// Concurrent probers wait on the lock rather than call the source again; the build cannot reach this table
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
	bs := et.root.on(t.st.goCtx, t.st.counters)
	items, err := evalExpr(op.forClause.In, bs)
	if err != nil {
		return nil, err
	}
	maybeObserveScan(bs, op, items)
	h, err := buildHashTable(op, bs, items)
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
	}, nil)
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
func (ex *flworExec) probeHash(ops []planOp, i int, op *planOp, t *scope, h *hashTable, out tupleSink, cs cells) error {
	if len(h.items) == 0 {
		return nil
	}
	probe, err := op.hash.probeKey(t)
	if err != nil {
		return err
	}
	matched := 0
	for _, ci := range h.candidates(&probe, op.hash.valueCmp) {
		ok, err := h.verify(&probe, ci, op.hash.valueCmp)
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
		nt := cs.bind(2*i, t, op.forClause.Var, nil, h.items[ci])
		if err := ex.feed(ops, i+1, nt, out, cs); err != nil {
			return err
		}
	}
	t.prune(int64(len(h.items) - matched))
	return nil
}

// joinProbe is one tuple's atomized probe key. A column-read probe with one
// child keeps only that child's text: the key is the one untyped atom.
type joinProbe struct {
	atoms xdm.Sequence
	text  string
	one   bool
}

// probeKey evaluates the probe key on t: as a column read (kernel.go) when
// the probe is one and its variable holds one element, else generically.
func (spec *hashJoinSpec) probeKey(t *scope) (joinProbe, error) {
	row, ok := spec.probeCol.row(t)
	if !ok {
		v, err := evalExpr(spec.probeExpr, t)
		if err != nil {
			return joinProbe{}, err
		}
		return joinProbe{atoms: xdm.Atomize(v)}, nil
	}
	if err := columnSteps(t, t.depth); err != nil {
		return joinProbe{}, err
	}
	first, n := xdm.Column(row, spec.probeCol.col)
	if n == 1 {
		return joinProbe{text: first, one: true}, nil
	}
	return joinProbe{atoms: columnAtoms(row, spec.probeCol.col)}, nil
}

func (p *joinProbe) size() int {
	if p.one {
		return 1
	}
	return len(p.atoms)
}

// seq is the probe as a sequence, boxed once on first need.
func (p *joinProbe) seq() xdm.Sequence {
	if p.one && p.atoms == nil {
		p.atoms = xdm.Sequence{xdm.Untyped(p.text)}
	}
	return p.atoms
}

// keys returns the bucket keys of probe atom i, and whether it is untyped.
func (p *joinProbe) keys(i int) (keys [2]hashKey, n int, untyped, ok bool) {
	if p.one {
		keys, n, ok = textKeys(p.text)
		return keys, n, true, ok
	}
	a := p.atoms[i].(xdm.Atomic)
	keys, n, ok = atomKeys(a)
	return keys, n, a.Type() == xdm.TypeUntyped, ok
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
	// keys[i] is item i's atomized join key — unless col is set: then every
	// item is a row element and its key is re-read from its col children.
	keys []xdm.Sequence
	col  string
	// ids numbers the buckets; bucket b holds the ascending item indices
	// flat[runs[b]:runs[b+1]], so a bucket is a run of one shared index
	// array rather than a slice of its own.
	ids  map[hashKey]int32
	runs []int32
	flat []int32
	// residual lists items whose key cannot be normalized (booleans,
	// temporals, NaN-valued numerics, multi-item keys under `eq`); they
	// are verified against every probe, preserving naive error and
	// mixed-type comparison behavior for those values.
	residual []int32
	// numericKeys records a numeric-typed key atom: without one, an untyped
	// probe can only equal a key of the same text.
	numericKeys bool
}

// hashKey is a bucket key: a number (by value, so -0 and 0, which compare
// equal, share a bucket — Go map keys compare floats with ==) or a text.
type hashKey struct {
	numeric bool
	f       float64
	s       string
}

// atomKeys returns the keys one atom files under, chosen so that any two
// atoms the promotion rules could find equal share one:
//
//   - all numerics promote through float64, so they file under the double;
//   - strings file under their text;
//   - untyped atomics compare as strings against strings/untyped and as
//     numbers against numerics, so they file under both applicable keys;
//   - booleans and temporals (which also compare lexically against
//     strings), plus anything NaN-valued (which OrderAtomic treats as equal
//     to every number), have no safe key and stay in the residual list.
func atomKeys(a xdm.Atomic) (keys [2]hashKey, n int, ok bool) {
	switch v := a.(type) {
	case xdm.String:
		return [2]hashKey{{s: string(v)}}, 1, true
	case xdm.Untyped:
		return textKeys(string(v))
	case xdm.Integer:
		return numberKeys(float64(v))
	case xdm.Decimal:
		return numberKeys(float64(v))
	case xdm.Double:
		return numberKeys(float64(v))
	}
	return keys, 0, false
}

// textKeys is atomKeys of an untyped atom, from its text.
func textKeys(text string) (keys [2]hashKey, n int, ok bool) {
	keys[0] = hashKey{s: text}
	f, isNum := xdm.UntypedNumber(text)
	switch {
	case !isNum:
		return keys, 1, true
	case math.IsNaN(f):
		return keys, 0, false
	}
	keys[1] = hashKey{numeric: true, f: f}
	return keys, 2, true
}

func numberKeys(f float64) (keys [2]hashKey, n int, ok bool) {
	if math.IsNaN(f) {
		return keys, 0, false
	}
	keys[0] = hashKey{numeric: true, f: f}
	return keys, 1, true
}

// buildHashTable files every source item under its build key. A column-read
// key over rows (elements or records) is read by the kernel and not stored.
func buildHashTable(op *planOp, t *scope, items xdm.Sequence) (*hashTable, error) {
	spec := op.hash
	h := &hashTable{items: items, col: spec.keyCol}
	if h.col != "" && !allRows(items) {
		h.col = ""
	}
	if h.col == "" {
		h.keys = make([]xdm.Sequence, len(items))
	}
	b := newTableBuilder(h, len(items))
	for i, it := range items {
		if i&255 == 0 {
			if err := t.checkCancel(); err != nil {
				return nil, err
			}
		}
		if h.col != "" {
			// The generic build evaluates the key on a scope bound below t.
			if err := columnSteps(t, t.depth+1); err != nil {
				return nil, err
			}
			b.fileRow(it.(xdm.Node), int32(i), spec.valueCmp)
			continue
		}
		kseq, err := evalExpr(spec.buildExpr, t.bindItem(op.forClause.Var, it))
		if err != nil {
			return nil, err
		}
		key := xdm.Atomize(kseq)
		h.keys[i] = key
		b.fileAtoms(key, int32(i), spec.valueCmp)
	}
	b.finish()
	return h, nil
}

func allRows(items xdm.Sequence) bool {
	for _, it := range items {
		if n, ok := it.(xdm.Node); !ok || xdm.LocalName(n) == "" {
			return false
		}
	}
	return true
}

// tableBuilder files item indices under keys, then lays the buckets out.
// Items are filed in ascending order, so each bucket's run comes out
// ascending — the naive inner loop's order.
type tableBuilder struct {
	h *hashTable
	// count[b] is bucket b's size; last[b] the last item filed in it, so an
	// item whose key atoms share a key is filed once.
	count, last []int32
	ents        []tableEntry
}

type tableEntry struct{ bucket, item int32 }

func newTableBuilder(h *hashTable, n int) *tableBuilder {
	h.ids = make(map[hashKey]int32, n)
	return &tableBuilder{h: h, ents: make([]tableEntry, 0, 2*n)}
}

func (b *tableBuilder) file(k hashKey, item int32) {
	id, ok := b.h.ids[k]
	if !ok {
		id = int32(len(b.count))
		b.h.ids[k] = id
		b.count = append(b.count, 0)
		b.last = append(b.last, -1)
	}
	if b.last[id] == item {
		return
	}
	b.last[id] = item
	b.count[id]++
	b.ents = append(b.ents, tableEntry{id, item})
}

// fileAtoms files one item under its key atoms. An empty key matches
// nothing under either comparison and can raise no comparison error: the
// item is dropped. Value comparison against a multi-item key is a dynamic
// error in the naive pipeline, so such an item stays where every probe
// will trip over it — as does one with any atom that has no key.
func (b *tableBuilder) fileAtoms(key xdm.Sequence, item int32, valueCmp bool) {
	switch {
	case len(key) == 0:
		return
	case valueCmp && len(key) != 1:
		b.h.residual = append(b.h.residual, item)
		return
	}
	for _, a := range key {
		if _, _, ok := atomKeys(a.(xdm.Atomic)); !ok {
			b.h.residual = append(b.h.residual, item)
			return
		}
	}
	for _, a := range key {
		keys, n, _ := atomKeys(a.(xdm.Atomic))
		for _, k := range keys[:n] {
			b.file(k, item)
		}
		if a.(xdm.Atomic).Type().Numeric() {
			b.h.numericKeys = true
		}
	}
}

// fileRow is fileAtoms over a row's key column, read as untyped texts.
func (b *tableBuilder) fileRow(row xdm.Node, item int32, valueCmp bool) {
	first, n := xdm.Column(row, b.h.col)
	if n == 1 {
		if keys, k, ok := textKeys(first); ok {
			for _, key := range keys[:k] {
				b.file(key, item)
			}
			return
		}
	}
	if n > 0 {
		b.fileAtoms(columnAtoms(row, b.h.col), item, valueCmp)
	}
}

// finish lays bucket b out as flat[runs[b]:runs[b+1]].
func (b *tableBuilder) finish() {
	h := b.h
	h.runs = make([]int32, len(b.count)+1)
	for id, c := range b.count {
		h.runs[id+1] = h.runs[id] + c
	}
	next := b.count // reused as each bucket's fill position
	copy(next, h.runs)
	h.flat = make([]int32, len(b.ents))
	for _, e := range b.ents {
		h.flat[next[e.bucket]] = e.item
		next[e.bucket]++
	}
}

func (h *hashTable) bucket(k hashKey) []int32 {
	id, ok := h.ids[k]
	if !ok {
		return nil
	}
	return h.flat[h.runs[id]:h.runs[id+1]]
}

// candidates returns the item indices a probe key must be verified
// against, ascending (= the naive inner-loop order): one bucket as is when
// a single key settles it, else the sorted union with the residual list.
// Unhashable probes degrade to scanning every item.
func (h *hashTable) candidates(p *joinProbe, valueCmp bool) []int32 {
	n := p.size()
	if n == 0 {
		// Empty compares false against everything, errors never: no
		// candidates at all.
		return nil
	}
	if valueCmp && n != 1 {
		// The naive pipeline raises a singleton error on the first build
		// item it meets; scan so verification reproduces it.
		return h.allItems()
	}
	if n == 1 && len(h.residual) == 0 {
		keys, k, untyped, ok := p.keys(0)
		if !ok {
			return h.allItems()
		}
		// An untyped probe meets an untyped or string key by text alone;
		// its numeric key matters only against numeric-typed keys.
		if k == 1 || untyped && !h.numericKeys {
			return h.bucket(keys[0])
		}
	}
	cand := append([]int32(nil), h.residual...)
	for i := 0; i < n; i++ {
		keys, k, _, ok := p.keys(i)
		if !ok {
			return h.allItems()
		}
		for _, key := range keys[:k] {
			cand = append(cand, h.bucket(key)...)
		}
	}
	slices.Sort(cand)
	return slices.Compact(cand)
}

func (h *hashTable) allItems() []int32 {
	all := make([]int32, len(h.items))
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// verify applies the join's exact comparison to the probe and candidate
// ci's key. A column table re-reads the key from the row: under `=` (or
// `eq` between singletons, the same comparison) each probe atom against
// each key child, probe outermost as evalGeneralCompare loops; two untyped
// atoms are equal exactly when their texts are.
func (h *hashTable) verify(p *joinProbe, ci int32, valueCmp bool) (bool, error) {
	if h.col == "" {
		return verifyJoinPair(p.seq(), h.keys[ci], valueCmp)
	}
	row := h.items[ci].(xdm.Node)
	if valueCmp {
		if _, n := xdm.Column(row, h.col); p.size() != 1 || n != 1 {
			return verifyJoinPair(p.seq(), columnAtoms(row, h.col), true)
		}
	}
	for i := 0; i < p.size(); i++ {
		for text, j := xdm.NextColumn(row, h.col, 0); j >= 0; text, j = xdm.NextColumn(row, h.col, j) {
			var eq bool
			if p.one {
				eq = text == p.text
			} else {
				var err error
				if eq, err = xdm.CompareUntyped(text, p.atoms[i].(xdm.Atomic), xdm.OpEq); err != nil {
					return false, dynErr("%v", err)
				}
			}
			if eq {
				return true, nil
			}
		}
	}
	return false, nil
}
