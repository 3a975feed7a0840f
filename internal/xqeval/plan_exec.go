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
// and immutable. Each segment's ops are one resumable iterator (segIter):
// a pull resumes the ops where the last surviving tuple left them, so the
// final segment hands its tuples out one per pull — to the cursor, or to a
// caller that materializes them — with no intermediate []*scope. Only
// barriers (group by, order by) collect the tuple set, draining the segment
// before them and reusing the naive applyClause implementations so barrier
// semantics are byte-identical.

// flworExec is one execution of one FLWOR plan.
type flworExec struct {
	fp     *flworPlan
	states []opState
	// prog, when set, replaces the return clause on the final segment
	// (rowprog.go): fill writes its text rows — the streaming text path only.
	prog *rowProgram
	// env is the FLWOR's driving tuple until open runs the segments before
	// the final one, which the pulls then run: its iterator, or its merge
	// from the morsel workers.
	env *scope
	seg segIter
	par *merge
	// pools is where the pulls' fan-out goes, for their reader to join.
	pools *pools
}

// opState is the per-run state of one op that prepare fills: the sequence
// of an invariant for/let, and the hash table of a hash join.
type opState struct {
	seq  xdm.Sequence
	hash *hashTable
	// once/err/charge serve a hoisted filter operand, the one state filled
	// lazily — where morsel workers share it.
	once   sync.Once
	err    error
	charge buildCharge
}

func newExec(fp *flworPlan, env *scope, prog *rowProgram, ps *pools) *flworExec {
	return &flworExec{fp: fp, states: make([]opState, fp.numStates), prog: prog, env: env, pools: ps}
}

// execPlannedFLWOR runs the planned pipeline and materializes the result —
// the sequence-valued entry point evalFLWOR uses. Run to its end in one
// call, the execution and its iterator stay off the heap.
func execPlannedFLWOR(fp *flworPlan, env *scope) (xdm.Sequence, error) {
	ex := flworExec{fp: fp, states: make([]opState, fp.numStates)}
	tuples := []*scope{env}
	ops, err := ex.prelude(&tuples)
	if err != nil {
		return nil, err
	}
	var out xdm.Sequence
	if ex.canParallel(ops, tuples) {
		g := ex.fanOut(ops, tuples[0], true)
		defer g.join()
		for {
			i, err := g.next()
			if i < 0 {
				if err != nil {
					return nil, err
				}
				return out, nil
			}
			out = append(out, g.r.vals[i]...)
		}
	}
	err = ex.each(ops, true, tuples, func(t *scope) error {
		v, err := ex.finalValue(t)
		out = append(out, v...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// prelude runs the segments before the final one — each drained for its
// barrier — from the driving tuples, and returns the final segment's ops,
// leaving its driving tuples in *tuples: none when prepare proves it dead.
//
// Each segment's invariant states and hash tables are materialized before
// its tuple loop, which enables two things: an empty invariant source or
// build side proves the segment emits nothing, so the whole tuple loop is
// skipped; and with the shared state read-only from then on, an eligible
// segment can fan its outer scan out to morsel workers (parallel.go)
// without synchronizing on it.
func (ex *flworExec) prelude(tuples *[]*scope) ([]planOp, error) {
	for si, seg := range ex.fp.segments {
		if len(*tuples) > 0 {
			dead, err := ex.prepare(seg.ops, (*tuples)[0])
			if err != nil {
				return nil, err
			}
			if dead {
				*tuples = nil
			}
		}
		if si == len(ex.fp.segments)-1 {
			return seg.ops, nil
		}
		var next []*scope
		var err error
		if ex.canParallel(seg.ops, *tuples) {
			next, err = ex.fanOut(seg.ops, (*tuples)[0], false).collect()
		} else {
			err = ex.each(seg.ops, false, *tuples, func(t *scope) error {
				next = append(next, t)
				return nil
			})
		}
		if err == nil && seg.barrier != nil {
			next, err = applyClause(seg.barrier, next)
		}
		if err != nil {
			return nil, err
		}
		*tuples = next
	}
	return nil, nil
}

// open runs the prelude before the first pull: the final segment's tuples
// come from its iterator, or merged from the morsel workers.
func (ex *flworExec) open() error {
	if ex.env == nil {
		return nil
	}
	tuples := []*scope{ex.env}
	ops, err := ex.prelude(&tuples)
	ex.env = nil
	switch {
	case err != nil:
		return err
	case ex.canParallel(ops, tuples):
		ex.par = ex.fanOut(ops, tuples[0], true)
		*ex.pools = append(*ex.pools, ex.par)
	default:
		ex.seg = ex.iter(ops, true, nil, tuples)
	}
	return nil
}

// each hands every tuple that survives ops from the driving tuples to f,
// pulled by an iterator on the stack.
func (ex *flworExec) each(ops []planOp, final bool, tuples []*scope, f func(t *scope) error) error {
	var buf [4]opIter
	it := ex.iter(ops, final, buf[:], tuples)
	for {
		t, err := ex.pull(&it)
		if t == nil || err != nil {
			return err
		}
		if err := f(t); err != nil {
			return err
		}
	}
}

// value returns the final segment's next return value — a surviving
// tuple's, or the next one merged from the morsel workers; ok is false
// after the last.
func (ex *flworExec) value() (v xdm.Sequence, ok bool, err error) {
	if err := ex.open(); err != nil {
		return nil, false, err
	}
	if ex.par != nil {
		i, err := ex.par.next()
		if i < 0 {
			return nil, false, err
		}
		return ex.par.r.vals[i], true, nil
	}
	t, err := ex.pull(&ex.seg)
	if t == nil {
		return nil, false, err
	}
	v, err = ex.finalValue(t)
	return v, err == nil, err
}

// fill writes the next n text rows, each the row program's run of one
// surviving tuple — the tuple source — or merged from the morsel workers'
// texts; FETCH FIRST n stops the stream at row n.
func (ex *flworExec) fill(w *rowWriter, n int) error {
	if lim := ex.prog.limit; lim >= 0 {
		n = min(n, int(lim-w.rows))
	}
	if n <= 0 {
		return nil
	}
	if err := ex.open(); err != nil {
		return err
	}
	if ex.par != nil {
		return ex.par.fill(w, n)
	}
	for w.n() < n {
		t, err := ex.pull(&ex.seg)
		if t == nil {
			return err
		}
		if err := ex.prog.run(t, w.open()); err != nil {
			return err
		}
		w.end()
	}
	return nil
}

// segIter is one segment's ops as a resumable iterator: pull returns the
// next tuple that survives them all, resuming each op where the previous
// survivor left it — a for at its next item, a hash probe at its next
// candidate, a let or filter done once its tuple went on. st holds a state
// per op (a segment without ops, one for the tuple it passes on). Charges
// are the nested loop's, in its order: a for checks cancellation once per
// entry and charges a tuple per item, a rejected filter tuple and a
// probe's unmatched build items are pruned.
//
// The iterator holds no pointer it hands out, only its states', so one
// that a caller runs to the end stays on that caller's stack.
type segIter struct {
	ops       []planOp
	st        []opIter
	in        []*scope // the driving tuples, in[:started] entered
	started   int
	open      int  // st[:open] hold a live state
	transient bool // bind rebinds each op's cells
}

// opIter is one op's progress through the tuple it was entered with.
type opIter struct {
	t *scope
	// cell and at are the op's tuple cells on a transient segment.
	cell, at *scope
	// items are a for's items; on a hash for, the probe key's atoms,
	// which with text and one are its joinProbe.
	items      xdm.Sequence
	h          *hashTable // a hash for's table, cands its candidates
	cands      []int32
	text       string
	i, matched int32 // the next item or candidate; a hash for's matches
	entered    bool
	one        bool
}

// iter returns an iterator over ops, its states on buf when they fit. A
// final segment is transient when its consumer is done with a tuple before
// the next is pulled: a row program copies it into text, a constructor
// into a new element, and no state outlives the tuple (a hash build,
// invariant or hoisted operand reads no FLWOR-local variable). There each
// op rebinds one cell — its at variable another — for every tuple after
// the first. Any other return — `return $x` hands out the cell's item —
// and every collected tuple keeps fresh cells.
func (ex *flworExec) iter(ops []planOp, final bool, buf []opIter, in []*scope) segIter {
	_, ctor := ex.fp.flwor.Return.(*xquery.ElementCtor)
	n := max(len(ops), 1)
	return segIter{ops: ops, st: slices.Grow(buf[:0], n)[:n], in: in, transient: final && (ctor || ex.prog != nil)}
}

// enter starts op i on tuple t, keeping its cells.
func (it *segIter) enter(i int, t *scope) {
	s := &it.st[i]
	*s = opIter{t: t, cell: s.cell, at: s.at}
	it.open = i + 1
}

// pull returns the iterator's next surviving tuple, nil after the last.
func (ex *flworExec) pull(it *segIter) (*scope, error) {
	for {
		if it.open == 0 {
			if it.started == len(it.in) {
				return nil, nil
			}
			it.started++
			it.enter(0, it.in[it.started-1])
		}
		i := it.open - 1
		if i == len(it.ops) { // no ops: the tuple passes
			it.open--
			return it.st[i].t, nil
		}
		// A let or filter passes its tuple on once; a for resumes.
		var t *scope
		var err error
		s := &it.st[i]
		if first := !s.entered; first || it.ops[i].kind == opKindFor {
			s.entered = true
			t, err = ex.step(it, i, first)
		}
		if err != nil {
			return nil, err
		}
		if t == nil {
			it.open--
			continue
		}
		if i == len(it.ops)-1 {
			return t, nil
		}
		it.enter(i+1, t)
	}
}

// step returns op i's next output for its tuple, nil once it has none;
// first is the call that enters it.
func (ex *flworExec) step(it *segIter, i int, first bool) (*scope, error) {
	op, s := &it.ops[i], &it.st[i]
	t := s.t
	switch op.kind {
	case opKindFilter:
		ok, err := ex.evalFilter(op, t)
		if err != nil {
			return nil, err
		}
		if !ok {
			t.prune(1)
			return nil, nil
		}
		return t, nil

	case opKindLet:
		var v xdm.Sequence
		var err error
		if op.invariant {
			v = ex.states[op.stateIdx].seq // prepared
		} else if v, err = evalExpr(op.letClause.Expr, t); err != nil {
			return nil, err
		}
		return it.bind(&s.cell, t, op.letClause.Var, v, nil), nil

	case opKindFor:
		if first {
			if err := t.checkCancel(); err != nil {
				return nil, err
			}
			if op.hash != nil {
				return ex.startProbe(it, op, s)
			}
			var err error
			if op.invariant {
				s.items = ex.states[op.stateIdx].seq // prepared
			} else if s.items, err = evalExpr(op.forClause.In, t); err != nil {
				return nil, err
			}
		}
		if op.hash != nil {
			return it.probeNext(op, s)
		}
		if int(s.i) == len(s.items) {
			return nil, nil
		}
		if err := t.countTuple(); err != nil {
			return nil, err
		}
		s.i++
		nt := it.bind(&s.cell, t, op.forClause.Var, nil, s.items[s.i-1])
		if op.forClause.At != "" {
			nt = it.bind(&s.at, nt, op.forClause.At, nil, xdm.Integer(int(s.i)))
		}
		return nt, nil
	}
	return nil, dynErr("unknown plan op")
}

// bind binds name under t to value, or to it alone when it is set: in a
// fresh cell, or, transient, in *c, which the first tuple allocates.
func (it *segIter) bind(c **scope, t *scope, name string, value xdm.Sequence, item xdm.Item) *scope {
	if !it.transient {
		if item != nil {
			return t.bindItem(name, item)
		}
		return t.bind(name, value)
	}
	if *c == nil {
		*c = new(scope)
	}
	cell := *c
	*cell = scope{parent: t, st: t.st, name: name, value: value, ctx: t.ctx, depth: t.depth + 1}
	if item != nil {
		cell.item[0] = item
		cell.value = cell.item[:]
	}
	return cell
}

// startProbe enters a hash-join for: it evaluates the tuple's probe key
// and finds the build items to verify, then hands out the first match.
// Against an empty table the probe is not evaluated at all, as the nested
// loop over no items evaluates no predicate.
func (ex *flworExec) startProbe(it *segIter, op *planOp, s *opIter) (*scope, error) {
	h, err := ex.hashTable(op, s.t)
	if err != nil || len(h.items) == 0 {
		return nil, err
	}
	p, err := op.hash.probeKey(s.t)
	if err != nil {
		return nil, err
	}
	s.h, s.cands = h, h.candidates(&p, op.hash.valueCmp)
	if len(s.cands) > 0 && (h.col == "" || op.hash.valueCmp) {
		p.seq() // boxed once for verify, which may compare it whole
	}
	s.items, s.text, s.one = p.atoms, p.text, p.one
	return it.probeNext(op, s)
}

// probeNext hands out the next build item that matches the probe, in
// source order. Every candidate is re-verified under the exact comparison
// semantics, so bucket collisions (and the deliberately lossy key
// normalization) can only cost time, never change results. An empty probe
// (SQL NULL) matches nothing; the `if (fn:empty(…))` and
// `fn:not(fn:exists(…))` around a correlated lookup turn that into NULL
// padding and the anti-join. Once the candidates run out, the unmatched
// build items are pruned.
func (it *segIter) probeNext(op *planOp, s *opIter) (*scope, error) {
	p := joinProbe{atoms: s.items, text: s.text, one: s.one}
	for int(s.i) < len(s.cands) {
		ci := s.cands[s.i]
		s.i++
		ok, err := s.h.verify(&p, ci, op.hash.valueCmp)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		s.matched++
		if err := s.t.countTuple(); err != nil {
			return nil, err
		}
		return it.bind(&s.cell, s.t, op.forClause.Var, nil, s.h.items[ci]), nil
	}
	s.t.prune(int64(len(s.h.items) - int(s.matched)))
	return nil, nil
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

// prepare fills every invariant state in one segment's ops before its tuple
// loop, which reads them — a let's value is built here, or taken from the
// plan — evaluating against t (soundly: invariance means the expressions
// see identical bindings from every tuple). It reports dead=true as soon as an
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
			st := &ex.states[op.stateIdx]
			if kv := t.reuse(op.keep); kv != nil {
				st.seq = kv.seq
				continue
			}
			tk := t.startKeep(op.keep)
			if st.seq, err = evalExpr(op.letClause.Expr, t); err != nil {
				return false, err
			}
			t.finishKeep(tk, st.seq, nil)
		}
	}
	return false, nil
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
		c := t.st.counters
		steps := c.steps
		var v xdm.Sequence
		v, st.err = evalExpr([2]xquery.Expr{b.Left, b.Right}[side], t.on(nil, c))
		st.seq = xdm.Atomize(v)
		st.charge.steps, c.steps = c.steps-steps, steps
	})
	t.st.counters.pay(&st.charge)
	return st.seq, st.err
}

// source evaluates an invariant for's items into its state, once per FLWOR
// execution (prepare). A partitioned scan whose gathered sequence differs
// from the plain shard concatenation (pruned, filtered, projected, or a
// partial-mode skip) does not feed the statistics store.
func (ex *flworExec) source(op *planOp, t *scope) (xdm.Sequence, error) {
	var s xdm.Sequence
	var transformed bool
	var err error
	if op.part != nil {
		s, transformed, err = ex.gatherPartitioned(op, t)
	} else {
		s, err = evalExpr(op.forClause.In, t)
	}
	if err != nil {
		return nil, err
	}
	if !transformed {
		maybeObserveScan(t, op, s)
	}
	ex.states[op.stateIdx].seq = s
	return s, nil
}

// hashTable returns a hash op's build table: the evaluation's shared one
// when the plan gave it a slot, else this FLWOR execution's own — built, or
// the one kept with the plan.
func (ex *flworExec) hashTable(op *planOp, t *scope) (*hashTable, error) {
	if op.hash.table >= 0 {
		return t.st.tables.get(op, t)
	}
	st := &ex.states[op.stateIdx]
	if st.hash != nil {
		return st.hash, nil
	}
	if kv := t.reuse(op.keep); kv != nil {
		st.hash = kv.table
		return st.hash, nil
	}
	tk := t.startKeep(op.keep)
	items, err := ex.source(op, t)
	if err != nil {
		return nil, err
	}
	h, err := buildHashTable(op, t, items)
	if err != nil {
		return nil, err
	}
	t.finishKeep(tk, nil, h)
	st.hash = h
	return h, nil
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
	mu     sync.Mutex
	built  atomic.Pointer[hashTable]
	charge buildCharge // set before built
}

// get returns op's table, building it on first use, or taking the one kept
// with the plan. The build runs on a copy of the evaluation's root scope —
// source and key read nothing the query binds, so every prober would build
// the same table, at the same scope depth — with its own state under the
// caller's context and counters, whose steps move to the table's charge,
// which every prober pays (buildCharge). Only a finished table is kept: an
// error, cancellation above all, goes back to its caller, charged to it,
// and the next prober builds again. Concurrent probers of one evaluation
// wait on the lock rather than call the source again; the build cannot
// reach this table (its source holds no FLWOR, and a view's body is its own
// evaluation).
func (et *evalTables) get(op *planOp, t *scope) (*hashTable, error) {
	st := &et.tables[op.hash.table]
	if h := st.built.Load(); h != nil {
		t.st.counters.pay(&st.charge)
		return h, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if h := st.built.Load(); h != nil {
		t.st.counters.pay(&st.charge)
		return h, nil
	}
	c := t.st.counters
	steps := c.steps
	h, err := et.build(op, t)
	if err != nil {
		return nil, err
	}
	st.charge.steps, c.steps = c.steps-steps, steps
	st.built.Store(h)
	c.pay(&st.charge)
	return h, nil
}

// build builds op's table for get, or takes the one kept with the plan.
func (et *evalTables) build(op *planOp, t *scope) (*hashTable, error) {
	if kv := t.reuse(op.keep); kv != nil {
		return kv.table, nil
	}
	bs := et.root.on(t.st.goCtx, t.st.counters)
	tk := bs.startKeep(op.keep)
	items, err := evalExpr(op.forClause.In, bs)
	if err != nil {
		return nil, err
	}
	maybeObserveScan(bs, op, items)
	h, err := buildHashTable(op, bs, items)
	if err != nil {
		return nil, err
	}
	bs.finishKeep(tk, nil, h)
	return h, nil
}

// execFilter evaluates a filter planned as a probe FLWOR (probeFilter): the
// items bound to its for variable are the filter's result. No return
// clause runs and no row is charged — the naive filter charges none.
func execFilter(fp *flworPlan, env *scope) (xdm.Sequence, error) {
	ex := flworExec{fp: fp, states: make([]opState, fp.numStates)}
	var out xdm.Sequence
	err := ex.each(fp.segments[0].ops, false, []*scope{env}, func(t *scope) error {
		v, _ := t.lookupVar(filterVar)
		out = append(out, v...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
