package xqeval

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/xquery"
)

// plan.go is the query planner: a static pass over a parsed query that
// rewrites each FLWOR's clause list into an executable pipeline with three
// optimizations the paper's translator deliberately leaves to the server
// (§3.4/§3.5): loop-invariant hoisting of for-sources and let-expressions,
// where-conjunct decomposition with predicate pushdown, and hash execution
// of equi-join conjuncts. The plan is immutable after construction — one
// plan is shared by every execution of a prepared statement, concurrently —
// and all per-run state lives in the executor (plan_exec.go).
//
// The planner never changes which tuples a query produces; it may change
// *whether and when dynamic errors surface* (a predicate evaluated earlier
// can raise an error the naive pipeline never reached, and a hash probe
// skips comparisons the naive nested loop would have performed). XQuery
// §2.3.4 explicitly permits this latitude, and the differential tests pin
// the value-level equivalence on the whole generated-query corpus.

// Plan is an optimized execution plan for one query. Build it once with
// Engine.CompileAST and evaluate with Engine.EvalStream; the zero decisions
// case degrades to the naive pipeline's behavior at streaming cost.
type Plan struct {
	Query *xquery.Query
	// prefixes is the prolog's schema-import prefix map, built once by the
	// compile and read by every evaluation of the plan.
	prefixes map[string]string

	// Stream is the body's streaming decomposition (stream.go): how — and
	// whether — EvalStream can deliver rows incrementally. Compiled-query
	// artifacts carry it, so cached statements stream without re-analysis.
	Stream *StreamPlan

	// flwors maps each planned FLWOR node — and each filter node planned as
	// a probe FLWOR (probeFilter) — to its pipeline.
	flwors  map[xquery.Expr]*flworPlan
	ordered []*flworPlan
	// tables counts the hash tables built once per evaluation
	// (hashJoinSpec.table): each evaluation allocates that many slots.
	tables int
	// records maps each constructor of column copies to its column-record
	// kernel (record.go); nil when the query has none.
	records map[*xquery.ElementCtor]*recordKernel
	// kept holds one slot per closed build (planOp.keep): the value its
	// first successful build left for later evaluations (keep.go); release
	// returns their shares of the engine's budget when the plan is collected.
	kept    []keptSlot
	release *keptRelease

	// Static decision counts across all FLWORs in the query.
	HashJoins         int
	PredicatesPushed  int
	InvariantsHoisted int
	// StatsSources counts scans the cost model annotated with an estimated
	// cardinality — zero when no source had been observed yet.
	StatsSources int
}

// statsProvider supplies per-data-service statistics and partition specs to
// the planner: the Engine (stats.go, partition.go), or a cost test's fake.
type statsProvider interface {
	SourceStats(namespace, local string) (*SourceStats, bool)
	SourcePartition(namespace, local string) (*PartitionSpec, bool)
}

// scanRef statically identifies a for-source as one registered data
// service function: a zero-argument call through a prolog-bound prefix.
// It is the key under which statistics are collected and looked up.
type scanRef struct {
	prefix    string
	namespace string
	local     string
}

// flworPlan is the pipeline for one FLWOR: streaming segments separated by
// materializing barriers (group by / order by).
type flworPlan struct {
	id       int
	flwor    *xquery.FLWOR
	segments []planSegment
	// numStates sizes the per-execution state array (invariant caches and
	// hash tables, keyed by op stateIdx).
	numStates int
}

// planSegment is a run of streaming ops ending at an optional barrier
// clause that must see the whole tuple set at once.
type planSegment struct {
	ops     []planOp
	barrier xquery.Clause // *xquery.GroupBy or *xquery.OrderByClause; nil on the final segment
}

type opKind int

const (
	opKindFor opKind = iota
	opKindLet
	opKindFilter
)

// planOp is one streaming pipeline operator.
type planOp struct {
	kind opKind

	forClause *xquery.For // opKindFor
	letClause *xquery.Let // opKindLet
	cond      xquery.Expr // opKindFilter: one where-conjunct

	// invariant marks a for/let whose expression references no FLWOR-local
	// variable bound earlier in the pipeline: it is evaluated once per
	// FLWOR execution (by prepare, before the tuple loop) instead of once
	// per tuple.
	invariant bool
	// hoisted marks an invariant op that the naive pipeline would actually
	// have re-evaluated (a for precedes it) — the cases worth counting.
	hoisted bool
	// pushed marks a filter placed earlier than its originating where
	// clause.
	pushed bool
	// stateIdx indexes the executor's per-run state array; -1 when the op
	// carries no state.
	stateIdx int
	// operandState, on a filter whose conjunct is a comparison or
	// arithmetic Binary, indexes the cached value of its left/right operand
	// when that operand references no FLWOR-local variable (the cast of an
	// external parameter, typically): evaluated on the first tuple to reach
	// the filter instead of on every one. -1 = evaluated per tuple.
	operandState [2]int
	// column, on a filter comparing column reads with hoisted operands or
	// with each other, runs the conjunct as a column kernel (kernel.go).
	column *filterKernel

	// hash turns an invariant for into a hash join.
	hash *hashJoinSpec

	// keep, on an invariant let or a hash for whose value or build table is
	// closed (keep.go), is 1 + its slot in Plan.kept; 0 otherwise.
	keep int

	// scan is set when the for-source is a statically resolvable data
	// service call — the statistics key for lazy collection and cost
	// lookup. estRows is the stats-estimated source cardinality, -1 when
	// unknown (source not yet observed).
	scan    *scanRef
	estRows int64

	// part annotates an invariant scan of a partitioned data service
	// (partition.go): the executor scatter-gathers its shards instead of
	// calling the serial concatenation function, which the naive pipeline
	// keeps as the single-source differential oracle.
	part *partitionPlan
}

// hashJoinSpec executes an equi-join conjunct as a build/probe hash join:
// buildExpr depends only on the for variable (evaluated once per source
// item to build the table), probeExpr only on variables bound earlier
// (evaluated once per incoming tuple to probe it).
type hashJoinSpec struct {
	cond      xquery.Expr // the original conjunct, for EXPLAIN output
	probeExpr xquery.Expr
	buildExpr xquery.Expr
	// valueCmp distinguishes `eq` (value comparison) from `=` (general,
	// existential comparison); the executor verifies every hash candidate
	// under the exact operator semantics.
	valueCmp bool
	// correlated marks a probe that reads no variable of its own FLWOR,
	// only enclosing bindings: a semi-, anti- or outer-join lookup from an
	// EXISTS, IN, ANY or §3.5 outer join. Its build table is built once per
	// evaluation, in slot table of the evaluation's evalTables; a join's
	// (table -1) is built per FLWOR execution.
	correlated bool
	table      int
	// keyCol is the build-side key column when the build expression is a
	// column read of the for variable, probeCol the probe's column read:
	// the table is built, and probed, by the column kernels (kernel.go).
	keyCol   string
	probeCol colRead

	// Cost-model annotations (see pickHashConjunct):
	// estBuild/estDistinct are the estimated build cardinality and key
	// distinctness (-1/0 = unknown); statsPick records that statistics chose
	// this key over at least one other hashable equi-conjunct.
	estBuild    int64
	estDistinct int64
	statsPick   bool
}

// buildPlan plans every FLWOR in the query body, resolving scans through
// the prolog's prefixes against the provider's statistics: estimated
// cardinalities, hash-join cost estimates and, among several hashable
// equi-conjuncts, the highest-distinct key (the rest stay filters, so
// tuples flow as under the first-match rule, which an unobserved source
// gets). The result is immutable and safe for concurrent executions.
func buildPlan(q *xquery.Query, sp statsProvider, prefixes map[string]string) *Plan {
	p := &Plan{Query: q, prefixes: prefixes, Stream: planStream(q.Body), flwors: map[xquery.Expr]*flworPlan{}}
	pc := &planCtx{sp: sp, prefixes: prefixes, body: q.Body}
	pc.planExprs(p, q.Body, false)
	if p.records != nil {
		xquery.RecordReads(q.Body, p.keepReads)
	}
	p.Stream.fuse(p.flwors)
	if p.kept != nil {
		p.release = newKeptRelease(p.kept)
	}
	return p
}

// planExprs plans every FLWOR, probe filter and record constructor in root,
// in body order. nested marks root as a kept let's expression (keep.go):
// what runs only when that let is built keeps nothing of its own.
func (pc *planCtx) planExprs(p *Plan, root xquery.Expr, nested bool) {
	xquery.WalkExprs(root, func(e xquery.Expr) bool {
		var f *xquery.FLWOR
		switch n := e.(type) {
		case *xquery.FLWOR:
			f = n
		case *xquery.Filter:
			f = pc.probeFilter(n)
		case *xquery.ElementCtor:
			if k := recordKernelOf(n); k != nil {
				if p.records == nil {
					p.records = map[*xquery.ElementCtor]*recordKernel{}
				}
				p.records[n] = k
				// Its content is column copies: nothing below to plan.
				return false
			}
		}
		if !nested && e != root && p.keptLet(e) {
			pc.planExprs(p, e, true)
			return false
		}
		if f != nil {
			fp := planFLWOR(f, p, pc, nested)
			fp.id = len(p.ordered) + 1
			p.flwors[e] = fp
			p.ordered = append(p.ordered, fp)
		}
		return true
	})
}

// planCtx carries per-query planning inputs: the prolog's prefix bindings
// (to resolve scan sources), the statistics provider, and the query body,
// whose binders boundVars collects on first need.
type planCtx struct {
	prefixes map[string]string
	sp       statsProvider
	body     xquery.Expr
	bound    map[string]bool
}

// boundVars is every variable bound anywhere in the query — for, at, let,
// group-by and quantifier variables. It is computed when the first hash
// candidate asks, so queries without one pay nothing for it.
func (pc *planCtx) boundVars() map[string]bool {
	if pc.bound != nil {
		return pc.bound
	}
	pc.bound = map[string]bool{}
	add := func(name string) {
		if name != "" {
			pc.bound[name] = true
		}
	}
	xquery.WalkExprs(pc.body, func(e xquery.Expr) bool {
		switch n := e.(type) {
		case *xquery.Quantified:
			add(n.Var)
		case *xquery.FLWOR:
			for _, cl := range n.Clauses {
				switch c := cl.(type) {
				case *xquery.For:
					add(c.Var)
					add(c.At)
				case *xquery.Let:
					add(c.Var)
				case *xquery.GroupBy:
					for _, k := range c.Keys {
						add(k.Var)
					}
					add(c.PartitionVar)
				}
			}
		}
		return true
	})
	return pc.bound
}

// readsOnly reports whether e evaluates the same everywhere in one
// evaluation once v (may be "") is fixed: it reads no variable the query
// binds other than v, and no context item. External parameters are fine.
// readsContext is conservative about FLWORs, which also keeps their row and
// tuple charges out of per-evaluation builds.
func (pc *planCtx) readsOnly(e xquery.Expr, v string) bool {
	if readsContext(e) {
		return false
	}
	bound := pc.boundVars()
	for name := range xquery.FreeVars(e) {
		if name != v && bound[name] {
			return false
		}
	}
	return true
}

// sharedProbe reports whether a correlated lookup can probe a table built
// once per evaluation: the probe reads some query binding (not just
// external parameters, which would make it a constant filter), and the
// source and build key read none but the for variable.
func (pc *planCtx) sharedProbe(spec *hashJoinSpec, c *xquery.For) bool {
	return xquery.UsesVars(spec.probeExpr, pc.boundVars()) && pc.readsOnly(c.In, "") && pc.readsOnly(spec.buildExpr, c.Var)
}

// partition returns the partition spec of a partitioned scan, if the
// provider knows one.
func (pc *planCtx) partition(ref *scanRef) (*PartitionSpec, bool) {
	if ref == nil {
		return nil, false
	}
	return pc.sp.SourcePartition(ref.namespace, ref.local)
}

// resolveScan recognizes a for-source of the form prefix:LOCAL() — a
// zero-argument data service call through a prolog-bound prefix.
func (pc *planCtx) resolveScan(e xquery.Expr) *scanRef {
	fc, ok := e.(*xquery.FuncCall)
	if !ok || len(fc.Args) != 0 {
		return nil
	}
	i := strings.IndexByte(fc.Name, ':')
	if i < 0 {
		return nil
	}
	prefix, local := fc.Name[:i], fc.Name[i+1:]
	ns, ok := pc.prefixes[prefix]
	if !ok {
		return nil
	}
	return &scanRef{prefix: prefix, namespace: ns, local: local}
}

// sourceStats looks up statistics for a resolved scan; nil when the source
// has not been observed.
func (pc *planCtx) sourceStats(ref *scanRef) *SourceStats {
	if ref == nil {
		return nil
	}
	st, ok := pc.sp.SourceStats(ref.namespace, ref.local)
	if !ok {
		return nil
	}
	return st
}

// pipeEntry is one non-where clause during planning, with the set of local
// variables bound once it has run.
type pipeEntry struct {
	clause     xquery.Clause
	boundAfter map[string]bool
}

// pendingCond is one where-conjunct awaiting placement. slot is the entry
// index it runs after (-1 = before the first entry, i.e. once per FLWOR
// execution).
type pendingCond struct {
	cond     xquery.Expr
	slot     int
	pushed   bool
	consumed bool // absorbed into a hash join
}

func planFLWOR(f *xquery.FLWOR, p *Plan, pc *planCtx, nested bool) *flworPlan {
	fp := &flworPlan{flwor: f}

	entries, conds, rewrite := layoutFLWOR(f)

	// Assemble segments: filters attach right after the entry their slot
	// names; barriers close the running segment.
	var segs []planSegment
	var cur planSegment
	sawFor := false
	var local map[string]bool // every variable the FLWOR binds
	if len(entries) > 0 {
		local = entries[len(entries)-1].boundAfter
	}
	emitFilters := func(slot int) {
		for i := range conds {
			c := &conds[i]
			if c.slot != slot || c.consumed {
				continue
			}
			op := planOp{kind: opKindFilter, cond: c.cond, pushed: c.pushed, stateIdx: -1, operandState: [2]int{-1, -1}}
			// Before the first for a filter runs once anyway.
			if rewrite && sawFor {
				p.InvariantsHoisted += fp.hoistOperands(&op, local)
			}
			op.column = columnFilterOf(&op)
			cur.ops = append(cur.ops, op)
			if c.pushed {
				p.PredicatesPushed++
			}
		}
	}

	emitFilters(-1)
	for j, ent := range entries {
		localBefore := map[string]bool{}
		if j > 0 {
			localBefore = entries[j-1].boundAfter
		}
		switch c := ent.clause.(type) {
		case *xquery.For:
			op := planOp{kind: opKindFor, forClause: c, stateIdx: -1, estRows: -1}
			if rewrite && !xquery.UsesVars(c.In, localBefore) {
				op.invariant = true
				op.hoisted = sawFor
				op.stateIdx = fp.numStates
				fp.numStates++
				if op.hoisted {
					p.InvariantsHoisted++
				}
				op.scan = pc.resolveScan(c.In)
				st := pc.sourceStats(op.scan)
				if st != nil {
					op.estRows = st.Rows
					p.StatsSources++
				}
				spec, partitioned := pc.partition(op.scan)
				if c.At == "" {
					if h := pickHashConjunct(c, conds, j, localBefore, st, pc, partitioned); h != nil {
						op.hash = h
						p.HashJoins++
						if h.table >= 0 {
							h.table = p.tables
							p.tables++
						}
					}
				}
				if partitioned {
					op.part = &partitionPlan{spec: spec}
					// Positional binding pins row indices to the full
					// concatenation; pruning and filtering would shift them,
					// so the pushdowns require no `at` clause.
					if c.At == "" {
						if cond, probe, valueCmp, ok := findShardPin(c, conds, j, spec); ok {
							op.part.pinCond = cond
							op.part.pinProbe = probe
							op.part.pinValueCmp = valueCmp
						}
						op.part.projCols = projectionColumns(f, c.Var, spec.Key)
					}
				}
				if op.hash != nil && op.part == nil && !nested {
					op.keep = pc.keepHash(p, c, op.hash)
				}
			}
			cur.ops = append(cur.ops, op)
			sawFor = true
		case *xquery.Let:
			op := planOp{kind: opKindLet, letClause: c, stateIdx: -1}
			if rewrite && !xquery.UsesVars(c.Expr, localBefore) {
				op.invariant = true
				op.hoisted = sawFor
				op.stateIdx = fp.numStates
				fp.numStates++
				if op.hoisted {
					p.InvariantsHoisted++
				}
				if !nested && !p.Stream.bypasses(c) {
					var buf [4]funcKey
					if srcs, ok := pc.closedBuild(c.Expr, "", buf[:0]); ok {
						op.keep = p.addKeep(srcs, c.Expr)
					}
				}
			}
			cur.ops = append(cur.ops, op)
		case *xquery.GroupBy, *xquery.OrderByClause:
			cur.barrier = ent.clause
			segs = append(segs, cur)
			cur = planSegment{}
		}
		emitFilters(j)
	}
	segs = append(segs, cur)
	fp.segments = segs
	return fp
}

// layoutFLWOR splits a FLWOR's clauses into pipeline entries and placed
// where-conjuncts. rewrite is false when the clause list shadows a variable
// name — then every conjunct stays at its original position and no op is
// treated as invariant, because "earliest binding" is ambiguous. (The
// translator never emits shadowing; this guards hand-written queries.)
func layoutFLWOR(f *xquery.FLWOR) (entries []pipeEntry, conds []pendingCond, rewrite bool) {
	rewrite = true
	seen := map[string]bool{}
	binder := func(name string) {
		if name == "" {
			return
		}
		if seen[name] {
			rewrite = false
		}
		seen[name] = true
	}
	for _, cl := range f.Clauses {
		switch c := cl.(type) {
		case *xquery.For:
			binder(c.Var)
			binder(c.At)
		case *xquery.Let:
			binder(c.Var)
		case *xquery.GroupBy:
			for _, k := range c.Keys {
				binder(k.Var)
			}
			binder(c.PartitionVar)
		}
	}

	bound := map[string]bool{}
	lastGroupBy := -1
	for _, cl := range f.Clauses {
		switch c := cl.(type) {
		case *xquery.Where:
			origin := len(entries) - 1
			for _, conj := range xquery.SplitConjuncts(c.Cond) {
				slot := origin
				if rewrite {
					slot = placeConjunct(conj, entries, bound, lastGroupBy, origin)
				}
				conds = append(conds, pendingCond{cond: conj, slot: slot, pushed: slot < origin})
			}
		default:
			next := cloneVarSet(bound)
			switch c := cl.(type) {
			case *xquery.For:
				next[c.Var] = true
				if c.At != "" {
					next[c.At] = true
				}
			case *xquery.Let:
				next[c.Var] = true
			case *xquery.GroupBy:
				for _, k := range c.Keys {
					next[k.Var] = true
				}
				next[c.PartitionVar] = true
				lastGroupBy = len(entries)
			}
			entries = append(entries, pipeEntry{clause: cl, boundAfter: next})
			bound = next
		}
	}
	return entries, conds, rewrite
}

// placeConjunct finds the earliest entry index after which every local
// variable the conjunct references is bound, never crossing a group-by
// barrier (grouping changes tuple multiplicity, so filters must not move
// from after it to before it). A conjunct referencing a variable no entry
// binds stays at its original position so the naive pipeline's unbound-
// variable error timing is preserved.
func placeConjunct(conj xquery.Expr, entries []pipeEntry, localAll map[string]bool, lastGroupBy, origin int) int {
	local := localFreeVars(conj, localAll)
	minSlot := -1
	if lastGroupBy >= 0 {
		minSlot = lastGroupBy
	}
	for j := minSlot; j <= origin; j++ {
		var boundAfter map[string]bool
		if j >= 0 {
			boundAfter = entries[j].boundAfter
		}
		if subsetOf(local, boundAfter) {
			return j
		}
	}
	return origin
}

// hoistOperands gives each hoistable operand of a comparison or arithmetic
// filter a state slot, returning how many it hoisted.
func (fp *flworPlan) hoistOperands(op *planOp, local map[string]bool) (hoisted int) {
	b, ok := op.cond.(*xquery.Binary)
	if !ok || b.Op == "and" || b.Op == "or" {
		return 0
	}
	for side, operand := range [2]xquery.Expr{b.Left, b.Right} {
		if hoistableOperand(operand, local) {
			op.operandState[side] = fp.numStates
			fp.numStates++
			hoisted++
		}
	}
	return hoisted
}

// hoistableOperand reports whether a filter operand is worth caching per
// FLWOR execution: it computes something (a bare variable or literal costs
// no more to re-evaluate than to look up) from nothing the FLWOR binds, and
// charges nothing — whichever morsel worker evaluates it first, the
// row/tuple ledgers read as in serial execution.
func hoistableOperand(e xquery.Expr, local map[string]bool) bool {
	switch e.(type) {
	case *xquery.Var, *xquery.StringLit, *xquery.NumberLit, *xquery.EmptySeq, *xquery.ContextItem:
		return false
	}
	return pureExpr(e) && !xquery.UsesVars(e, local)
}

// pickHashConjunct looks among the conjuncts placed at slot j for
// equi-joins the for clause can execute as a hash join: one comparison side
// referencing the for variable and no other binding of the FLWOR (the build
// key), the other not referencing it (the probe). A probe reading earlier
// bindings of the FLWOR makes a join; a probe reading only enclosing ones
// makes a correlated lookup, accepted only when the build table can be
// shared across FLWOR executions — otherwise every execution would rebuild
// it at the cost of the scan it replaces. A probe reading no binding at all
// is a constant filter, not a join. Without statistics the first match
// wins. With statistics and several candidates,
// the key with the highest estimated distinctness wins (fewest expected
// matches per probe); every unchosen candidate remains an ordinary filter,
// so the choice never changes which tuples flow or in what order. The
// chosen conjunct is consumed. Its table is 0 for a correlated lookup (the
// caller numbers the per-evaluation slot), else -1.
func pickHashConjunct(c *xquery.For, conds []pendingCond, j int, localBefore map[string]bool, st *SourceStats, pctx *planCtx, partitioned bool) *hashJoinSpec {
	type candidate struct {
		pc   *pendingCond
		spec *hashJoinSpec
	}
	var cands []candidate
	for i := range conds {
		pc := &conds[i]
		if pc.slot != j || pc.consumed {
			continue
		}
		b, ok := pc.cond.(*xquery.Binary)
		if !ok || (b.Op != "=" && b.Op != "eq") {
			continue
		}
		spec := classifyJoinSides(b, c.Var, localBefore)
		if spec == nil || spec.correlated && (partitioned || !pctx.sharedProbe(spec, c)) {
			continue
		}
		spec.valueCmp = b.Op == "eq"
		spec.keyCol = joinKeyColumn(spec.buildExpr, c.Var)
		spec.probeCol = colReadOf(spec.probeExpr)
		spec.estBuild = -1
		if st != nil {
			spec.estBuild = st.Rows
			spec.estDistinct = st.DistinctFor(spec.keyCol)
		}
		cands = append(cands, candidate{pc, spec})
	}
	if len(cands) == 0 {
		return nil
	}
	best := 0
	if st != nil && len(cands) > 1 {
		for i := 1; i < len(cands); i++ {
			if cands[i].spec.estDistinct > cands[best].spec.estDistinct {
				best = i
			}
		}
		cands[best].spec.statsPick = best != 0
	}
	cands[best].pc.consumed = true
	spec := cands[best].spec
	spec.table = -1
	if spec.correlated {
		spec.table = 0
	}
	return spec
}

// joinKeyColumn extracts the build-side key column when the expression is a
// bare single-step child path off the for variable ($v/COL) — the shape
// every translator-generated equi-join takes. Other shapes build through
// the generic evaluator and cost-annotate with an unknown key.
func joinKeyColumn(e xquery.Expr, forVar string) string {
	if v, name, ok := childPath(e); ok && v == forVar {
		return name
	}
	return ""
}

// classifyJoinSides splits an equi-conjunct placed right after the for into
// build side (reads the for variable, no earlier binding of the FLWOR) and
// probe side (reads some variable, not the for variable). The probe is
// correlated when none of the variables it reads is an earlier binding of
// the FLWOR; nil when neither orientation fits.
func classifyJoinSides(b *xquery.Binary, forVar string, localBefore map[string]bool) *hashJoinSpec {
	left, right := xquery.FreeVars(b.Left), xquery.FreeVars(b.Right)
	for _, s := range [2]struct {
		build, probe xquery.Expr
		bv, pv       map[string]bool
	}{{b.Left, b.Right, left, right}, {b.Right, b.Left, right, left}} {
		if !s.bv[forVar] || s.pv[forVar] || len(s.pv) == 0 || readsAny(s.bv, localBefore) {
			continue
		}
		return &hashJoinSpec{cond: b, buildExpr: s.build, probeExpr: s.probe, correlated: !readsAny(s.pv, localBefore)}
	}
	return nil
}

// filterVar is the variable a probe filter binds its items to; no parsed
// variable can be named ".".
const filterVar = "."

// probeFilter recognizes the §3.5 outer-join lookup SRC()[K = probe]: one
// predicate, among whose conjuncts an equi-comparison has one side reading
// the context item and no query binding (the key) and the other reading
// enclosing bindings but not the context item (the probe), over an
// evaluation-invariant SRC. It restates the filter as
//
//	for $. in SRC() where K' = probe … return $.
//
// with K' reading $. where K read the context item, so planFLWOR makes the
// comparison a hash probe into a table built once per evaluation — the same
// operator as a correlated subquery's. nil leaves the nested-loop filter; a
// filter that is not an equi-lookup is rejected before anything allocates.
func (pc *planCtx) probeFilter(f *xquery.Filter) *xquery.FLWOR {
	if len(f.Predicates) != 1 || !hasKeyConjunct(f.Predicates[0]) {
		return nil
	}
	if _, partitioned := pc.partition(pc.resolveScan(f.Base)); partitioned {
		return nil
	}
	loop := &xquery.For{Var: filterVar, In: f.Base}
	conjs := xquery.SplitConjuncts(f.Predicates[0])
	probe := false
	for i, c := range conjs {
		var ok bool
		if conjs[i], ok = bindContext(c, filterVar); !ok {
			return nil
		}
		if b, ok := conjs[i].(*xquery.Binary); ok && !probe && (b.Op == "=" || b.Op == "eq") {
			spec := classifyJoinSides(b, filterVar, nil)
			probe = spec != nil && pc.sharedProbe(spec, loop)
		}
	}
	if !probe {
		return nil
	}
	return &xquery.FLWOR{
		Clauses: []xquery.Clause{loop, &xquery.Where{Cond: xquery.JoinConjuncts(conjs)}},
		Return:  xquery.VarRef(filterVar),
	}
}

// hasKeyConjunct reports whether the `and` tree e holds an `=`/`eq` whose
// sides split into one reading the context item and one not.
func hasKeyConjunct(e xquery.Expr) bool {
	b, ok := e.(*xquery.Binary)
	switch {
	case !ok:
		return false
	case b.Op == "and":
		return hasKeyConjunct(b.Left) || hasKeyConjunct(b.Right)
	case b.Op == "=" || b.Op == "eq":
		return readsContext(b.Left) != readsContext(b.Right)
	}
	return false
}

// readsContext reports whether e may read the context item outside the
// predicates that rebind it. Expressions it does not look into — FLWORs,
// quantifiers, constructors — count as reading it.
func readsContext(e xquery.Expr) bool {
	switch n := e.(type) {
	case *xquery.Var, *xquery.StringLit, *xquery.NumberLit, *xquery.EmptySeq:
		return false
	case *xquery.Path:
		return readsContext(n.Base)
	case *xquery.Filter:
		return readsContext(n.Base)
	case *xquery.Cast:
		return readsContext(n.Operand)
	case *xquery.Unary:
		return readsContext(n.Operand)
	case *xquery.Binary:
		return readsContext(n.Left) || readsContext(n.Right)
	case *xquery.FuncCall:
		for _, a := range n.Args {
			if readsContext(a) {
				return true
			}
		}
		return false
	}
	return true
}

// bindContext rewrites a filter conjunct to read the context item from
// variable v: `.` becomes $v and a relative path K becomes $v/K. Subtrees
// that do not read the context item are shared, not copied; ok is false
// where readsContext gave up.
func bindContext(e xquery.Expr, v string) (out xquery.Expr, ok bool) {
	if !readsContext(e) {
		return e, true
	}
	switch n := e.(type) {
	case *xquery.ContextItem:
		return xquery.VarRef(v), true
	case *xquery.RelPath:
		return &xquery.Path{Base: xquery.VarRef(v), Steps: n.Steps}, true
	case *xquery.Path:
		base, ok := bindContext(n.Base, v)
		return &xquery.Path{Base: base, Steps: n.Steps}, ok
	case *xquery.Filter:
		base, ok := bindContext(n.Base, v)
		return &xquery.Filter{Base: base, Predicates: n.Predicates}, ok
	case *xquery.Cast:
		operand, ok := bindContext(n.Operand, v)
		return &xquery.Cast{Type: n.Type, Operand: operand}, ok
	case *xquery.Unary:
		operand, ok := bindContext(n.Operand, v)
		return &xquery.Unary{Op: n.Op, Operand: operand}, ok
	case *xquery.Binary:
		l, okL := bindContext(n.Left, v)
		r, okR := bindContext(n.Right, v)
		return &xquery.Binary{Op: n.Op, Left: l, Right: r}, okL && okR
	case *xquery.FuncCall:
		args := make([]xquery.Expr, len(n.Args))
		for i, a := range n.Args {
			if args[i], ok = bindContext(a, v); !ok {
				return nil, false
			}
		}
		return &xquery.FuncCall{Name: n.Name, Args: args}, true
	}
	return nil, false
}

// readsAny reports whether the variable set vars meets set.
func readsAny(vars, set map[string]bool) bool {
	for v := range vars {
		if set[v] {
			return true
		}
	}
	return false
}

// localFreeVars restricts an expression's free variables to the FLWOR-local
// binder set — outer and external variables are fixed for a whole FLWOR
// execution and never constrain placement.
func localFreeVars(e xquery.Expr, local map[string]bool) map[string]bool {
	out := map[string]bool{}
	for v := range xquery.FreeVars(e) {
		if local[v] {
			out[v] = true
		}
	}
	return out
}

func subsetOf(sub, super map[string]bool) bool {
	for v := range sub {
		if !super[v] {
			return false
		}
	}
	return true
}

func cloneVarSet(in map[string]bool) map[string]bool {
	out := make(map[string]bool, len(in)+2)
	for k := range in {
		out[k] = true
	}
	return out
}

// Describe renders the plan as indented text lines for EXPLAIN output:
// one summary line, then each FLWOR's pipeline in execution order.
func (p *Plan) Describe() []string {
	stats := "none"
	if p.StatsSources > 0 {
		stats = fmt.Sprintf("%d scans", p.StatsSources)
	}
	lines := []string{fmt.Sprintf("flwors: %d, hash joins: %d, predicates pushed: %d, invariants hoisted: %d, stats: %s",
		len(p.ordered), p.HashJoins, p.PredicatesPushed, p.InvariantsHoisted, stats)}
	for _, fp := range p.ordered {
		lines = append(lines, fmt.Sprintf("flwor %d:", fp.id))
		for _, seg := range fp.segments {
			for _, op := range seg.ops {
				lines = append(lines, "  "+describeOp(op))
			}
			if seg.barrier != nil {
				lines = append(lines, "  "+describeBarrier(seg.barrier))
			}
		}
		// A fused row FLWOR's RECORD is the row program's to build.
		if p.Stream.prog != nil && p.Stream.prog.fp == fp {
			continue
		}
		if records := p.describeRecords(fp.flwor.Return); records != "" {
			lines = append(lines, "  return "+records)
		}
	}
	return lines
}

// describeRecords lists, as <NAME>, the column-record kernels e builds outside
// the nested FLWORs that describe their own, with how many columns each
// pruned one reads: "<RECORD> [column, reads 2 of 9]".
func (p *Plan) describeRecords(e xquery.Expr) string {
	var names []string
	tags := "[column"
	xquery.WalkExprs(e, func(e xquery.Expr) bool {
		switch n := e.(type) {
		case *xquery.FLWOR:
			return false
		case *xquery.ElementCtor:
			if k, ok := p.records[n]; ok {
				if name := "<" + n.Name + ">"; !slices.Contains(names, name) {
					names = append(names, name)
				}
				if kept := len(k.shape.Cols); kept < len(k.cols) {
					tags += fmt.Sprintf(", reads %d of %d", kept, len(k.cols))
				}
				return false
			}
		}
		return true
	})
	if len(names) == 0 {
		return ""
	}
	return strings.Join(names, ", ") + " " + tags + "]"
}

func describeOp(op planOp) string {
	switch op.kind {
	case opKindFor:
		var b strings.Builder
		if op.hash != nil {
			kind := "join"
			if op.hash.correlated {
				kind = "probe"
			}
			fmt.Fprintf(&b, "hash %s $%s in %s", kind, op.forClause.Var, exprText(op.forClause.In))
			fmt.Fprintf(&b, " [build %s probe %s", exprText(op.hash.buildExpr), exprText(op.hash.probeExpr))
			if op.hash.table >= 0 {
				b.WriteString(", built once per evaluation")
			}
			b.WriteString("]")
			if op.keep > 0 {
				b.WriteString(" [kept with plan]")
			}
			if op.hash.keyCol != "" || op.hash.probeCol.col != "" {
				b.WriteString(" [column]")
			}
			if h := op.hash; h.estBuild >= 0 {
				key := h.keyCol
				if key == "" {
					key = "?"
				}
				fmt.Fprintf(&b, " [cost: ~%d build rows, key %s ~%d distinct", h.estBuild, key, h.estDistinct)
				if h.estDistinct > 0 {
					matches := h.estBuild / h.estDistinct
					if matches < 1 {
						matches = 1
					}
					fmt.Fprintf(&b, ", ~%d matches/probe", matches)
				}
				if h.statsPick {
					b.WriteString(", stats-picked key")
				}
				b.WriteString("]")
			}
			return b.String()
		}
		fmt.Fprintf(&b, "for $%s in %s", op.forClause.Var, exprText(op.forClause.In))
		if op.invariant {
			if op.estRows >= 0 {
				fmt.Fprintf(&b, " [invariant, ~%d rows]", op.estRows)
			} else {
				b.WriteString(" [invariant]")
			}
		}
		if op.part != nil {
			fmt.Fprintf(&b, " [partitioned: %d shards on %s", len(op.part.spec.Shards), op.part.spec.Key)
			if op.part.pinCond != nil {
				b.WriteString(", shard-pinned")
			}
			if op.part.projCols != nil {
				fmt.Fprintf(&b, ", project %s", strings.Join(op.part.projCols, "+"))
			}
			b.WriteString("]")
		}
		return b.String()
	case opKindLet:
		s := fmt.Sprintf("let $%s := %s", op.letClause.Var, exprText(op.letClause.Expr))
		if op.invariant {
			s += " [invariant]"
		}
		if op.keep > 0 {
			s += " [kept with plan]"
		}
		return s
	case opKindFilter:
		s := "filter " + exprText(op.cond)
		if op.pushed {
			s += " [pushed]"
		}
		if b, ok := op.cond.(*xquery.Binary); ok {
			for side, operand := range [2]xquery.Expr{b.Left, b.Right} {
				if op.operandState[side] >= 0 {
					s += " [invariant " + exprText(operand) + "]"
				}
			}
		}
		if op.column != nil {
			s += " [column]"
		}
		return s
	default:
		return "?"
	}
}

func describeBarrier(c xquery.Clause) string {
	switch c := c.(type) {
	case *xquery.GroupBy:
		keys := make([]string, len(c.Keys))
		for i, k := range c.Keys {
			keys[i] = fmt.Sprintf("%s as $%s", exprText(k.Expr), k.Var)
		}
		return fmt.Sprintf("group $%s as $%s by %s", c.InVar, c.PartitionVar, strings.Join(keys, ", "))
	case *xquery.OrderByClause:
		specs := make([]string, len(c.Specs))
		for i, s := range c.Specs {
			specs[i] = exprText(s.Expr)
			if s.Descending {
				specs[i] += " descending"
			}
		}
		return "order by " + strings.Join(specs, ", ")
	default:
		return fmt.Sprintf("%T", c)
	}
}

// exprText renders an expression on one line (FLWORs serialize multi-line).
func exprText(e xquery.Expr) string {
	return strings.Join(strings.Fields(xquery.String(e)), " ")
}
