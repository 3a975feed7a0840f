package xqeval

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// partition.go is the engine side of federated horizontal partitioning: a
// data service function whose rows are split across shards living on
// different federated sources. Registration installs both a serial
// shard-concatenation function (so naive evaluation, static checking, and
// structural plans see an ordinary data service) and a PartitionSpec the
// cost-based planner discovers through the PartitionProvider interface.
// Stats-built plans then scatter the shard calls concurrently and gather
// them in shard order — byte-identical to the serial concatenation — with
// two per-shard pushdowns when an equality conjunct pins the shard key:
// partition pruning (only the shards the key can live on are called) and a
// per-shard filter/projection that trims rows before they enter the central
// pipeline. The central plan keeps the original conjunct as a filter, so
// pushdown never changes which tuples survive.

// ShardSpec locates one shard of a partitioned data service: the federated
// source it lives on (attribution and fault isolation) and the engine
// function serving its rows.
type ShardSpec struct {
	Source    string
	Namespace string
	Local     string
}

// PartitionSpec describes a horizontally partitioned data service function.
type PartitionSpec struct {
	// Key is the shard-key column (child element) name.
	Key string
	// Shards lists the shards in concatenation order — the serial result is
	// shard 0's rows, then shard 1's, and so on, and the scatter-gather
	// path preserves exactly that order.
	Shards []ShardSpec
	// ShardFor maps a shard-key value to the index of the only shard whose
	// rows can compare equal to it, or -1 when unknown (which disables
	// pruning for that probe). The contract is what makes pruning sound:
	// rows outside the returned shard never satisfy KEY = value.
	ShardFor func(xdm.Atomic) int
	// Partial tolerates degraded shards: a shard call failing with a
	// non-cancellation error is skipped (and counted) instead of failing
	// the scan — the partial-results mode of a federated mediator.
	Partial bool
}

// RegisterPartitioned installs a partitioned data service function: the
// namespace/local pair evaluates as the in-order concatenation of its
// shards' rows, and stats-built plans additionally see the spec for
// scatter-gather execution with shard pruning. Each shard function must be
// registered separately (typically with RegisterSourceRows under its own
// source, giving it per-source fault sites and breakers); shard calls go
// through the middleware chain on both the serial and the scattered path.
func (e *Engine) RegisterPartitioned(namespace, local string, spec *PartitionSpec) {
	e.RegisterContext(namespace, local, func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("xqeval: %s takes no arguments", local)
		}
		var out xdm.Sequence
		for _, sh := range spec.Shards {
			rows, err := e.CallContext(ctx, sh.Namespace, sh.Local, nil)
			if err != nil {
				if spec.Partial && !isContextErr(err) {
					e.m.shardsSkipped.Inc()
					continue
				}
				return nil, err
			}
			out = append(out, rows...)
		}
		return out, nil
	})
	e.mu.Lock()
	if e.partitions == nil {
		e.partitions = make(map[funcKey]*PartitionSpec)
	}
	e.partitions[funcKey{namespace, local}] = spec
	e.mu.Unlock()
}

// SourcePartition returns the partition spec registered for a function, if
// any. It makes the Engine a PartitionProvider for the planner.
func (e *Engine) SourcePartition(namespace, local string) (*PartitionSpec, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	spec, ok := e.partitions[funcKey{namespace, local}]
	return spec, ok
}

// PartitionProvider is the optional StatsProvider extension through which
// stats-built plans discover partitioned scans. Structural plans (no
// provider) and naive evaluation keep the serial concatenation function —
// they are the differential oracle the scattered path is held to.
type PartitionProvider interface {
	SourcePartition(namespace, local string) (*PartitionSpec, bool)
}

// partitionPlan is the plan-time annotation of one partitioned for: the
// spec, plus the shard-key pin found among the for's conjuncts (nil when
// none) and the projection column set when every use of the for variable is
// a plain column path (nil disables projection).
type partitionPlan struct {
	spec *PartitionSpec
	// pinCond is an unconsumed conjunct of the form $v/KEY = probe (either
	// side order) whose probe references no FLWOR-local variable, so it is
	// evaluable once per execution; pinProbe is its probe side and
	// pinValueCmp records `eq` vs `=` semantics. The conjunct stays in the
	// central pipeline as a filter — pushdown only pre-trims.
	pinCond     xquery.Expr
	pinProbe    xquery.Expr
	pinValueCmp bool
	// projCols, when non-nil, lists the only columns the FLWOR ever reads
	// off the for variable; shards' rows are projected down to them.
	projCols []string
}

// findShardPin looks among the conjuncts placed at slot j for an equality
// of the shard key column against an expression free of FLWOR-local
// variables. Unlike hash-join candidates the probe side may be constant —
// that is the interesting pruning case — and the conjunct is NOT consumed.
func findShardPin(c *xquery.For, conds []pendingCond, j int, spec *PartitionSpec) (cond, probe xquery.Expr, valueCmp, ok bool) {
	for i := range conds {
		pc := &conds[i]
		if pc.slot != j || pc.consumed {
			continue
		}
		b, okb := pc.cond.(*xquery.Binary)
		if !okb || (b.Op != "=" && b.Op != "eq") {
			continue
		}
		var probeSide xquery.Expr
		if joinKeyColumn(b.Left, c.Var) == spec.Key {
			probeSide = b.Right
		} else if joinKeyColumn(b.Right, c.Var) == spec.Key {
			probeSide = b.Left
		} else {
			continue
		}
		// The probe must not touch the for variable (or any other variable
		// bound inside the FLWOR later than evaluation time — conservatively,
		// none that the key side doesn't already preclude): findShardPin runs
		// with localBefore excluded by construction, so it only needs to
		// reject probes using the for variable itself or later bindings.
		if xquery.UsesVars(probeSide, map[string]bool{c.Var: true}) {
			continue
		}
		return pc.cond, probeSide, b.Op == "eq", true
	}
	return nil, nil, false, false
}

// projectionColumns reports whether every use of the for variable inside
// the FLWOR is a path whose first step is a plain named child (no wildcard,
// no predicates on that step) — the shape under which projecting shard rows
// down to the referenced columns is invisible to the rest of the query —
// and returns the referenced column set (plus the shard key, which the
// pushed filter reads). Any bare or non-path use disables projection.
func projectionColumns(f *xquery.FLWOR, forVar, key string) []string {
	safeBase := map[*xquery.Var]bool{}
	cols := map[string]bool{key: true}
	safe := true
	xquery.WalkExprs(f, func(e xquery.Expr) bool {
		switch e := e.(type) {
		case *xquery.Path:
			if v, ok := e.Base.(*xquery.Var); ok && v.Name == forVar {
				if len(e.Steps) > 0 && e.Steps[0].Name != "*" && len(e.Steps[0].Predicates) == 0 {
					safeBase[v] = true
					cols[e.Steps[0].Name] = true
				}
			}
		case *xquery.Var:
			if e.Name == forVar && !safeBase[e] {
				safe = false
			}
		}
		return safe
	})
	if !safe {
		return nil
	}
	out := make([]string, 0, len(cols))
	for c := range cols {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// shardOutcome is one scattered shard call's result.
type shardOutcome struct {
	rows    xdm.Sequence
	err     error
	skipped bool
}

// gatherPartitioned evaluates a partitioned for by scatter-gather:
// optionally prune to the shards a pinned key value can live on, call the
// selected shards concurrently (bounded by the engine's worker config),
// and concatenate their rows in shard order — the serial concatenation
// order, which is what keeps federated results byte-identical to the
// single-source oracle. After pruning the pinned conjunct also
// filters each shard's rows (the central filter re-checks survivors, so
// the surviving tuple set is unchanged) and rows are projected down to the
// referenced columns. transformed reports whether the returned sequence
// differs from the plain concatenation (pruned, filtered, projected, or a
// partial-mode skip) — such sequences must not feed the statistics store.
func (ex *flworExec) gatherPartitioned(op *planOp, t *scope) (seq xdm.Sequence, transformed bool, err error) {
	part := op.part
	spec := part.spec
	selected := make([]int, len(spec.Shards))
	for i := range selected {
		selected[i] = i
	}
	pinActive := false
	if part.pinProbe != nil && spec.ShardFor != nil {
		if pruned, ok := ex.pruneShards(part, spec, t); ok {
			t.st.engine.m.shardsPruned.Add(int64(len(selected) - len(pruned)))
			selected = pruned
			pinActive = true
			transformed = true
		}
	}

	outcomes := make([]shardOutcome, len(selected))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, shardIdx := range selected {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, sh ShardSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			rows, err := t.st.engine.CallContext(t.st.goCtx, sh.Namespace, sh.Local, nil)
			if err != nil && spec.Partial && !isContextErr(err) {
				outcomes[i] = shardOutcome{skipped: true, err: err}
				return
			}
			outcomes[i] = shardOutcome{rows: rows, err: err}
		}(i, spec.Shards[shardIdx])
	}
	wg.Wait()

	m := &t.st.engine.m
	m.fedScans.Inc()
	for i, shardIdx := range selected {
		sh := spec.Shards[shardIdx]
		oc := &outcomes[i]
		if oc.skipped {
			m.shardsSkipped.Inc()
			transformed = true
			continue
		}
		if oc.err != nil {
			return nil, false, oc.err
		}
		m.shardScans.Inc()
		m.sourceScans.Add(sh.Source, 1)
		rows := oc.rows
		if pinActive && part.pinCond != nil {
			rows, err = ex.filterShardRows(op, part, t, rows)
			if err != nil {
				return nil, false, err
			}
			transformed = true
		}
		if part.projCols != nil {
			rows = projectRows(rows, part.projCols)
			transformed = true
		}
		seq = append(seq, rows...)
	}
	return seq, transformed, nil
}

// pruneShards evaluates the pin probe once and maps its atoms to shard
// indices. ok is false — no pruning — when the probe cannot be evaluated
// here (its error, if real, will resurface in the central filter), when any
// atom maps outside the shard set, or when `eq` semantics face a non-
// singleton probe (the central filter owns that dynamic error).
func (ex *flworExec) pruneShards(part *partitionPlan, spec *PartitionSpec, t *scope) ([]int, bool) {
	probe, err := evalExpr(part.pinProbe, t)
	if err != nil {
		return nil, false
	}
	atoms := xdm.Atomize(probe)
	if part.pinValueCmp && len(atoms) != 1 {
		return nil, false
	}
	if len(atoms) == 0 {
		// KEY = () matches nothing and raises nothing: zero shards.
		return nil, true
	}
	set := map[int]bool{}
	for _, a := range atoms {
		at, ok := a.(xdm.Atomic)
		if !ok {
			return nil, false
		}
		idx := spec.ShardFor(at)
		if idx < 0 || idx >= len(spec.Shards) {
			return nil, false
		}
		set[idx] = true
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out, true
}

// filterShardRows applies the pinned conjunct to each shard row — the
// predicate pushdown. The central pipeline re-evaluates the same conjunct
// on survivors, so this can only shrink the rows flowing into the pipeline,
// never change the result.
func (ex *flworExec) filterShardRows(op *planOp, part *partitionPlan, t *scope, rows xdm.Sequence) (xdm.Sequence, error) {
	out := rows[:0:0]
	for _, it := range rows {
		ok, err := evalEBV(part.pinCond, t.bindItem(op.forClause.Var, it))
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, it)
		}
	}
	return out, nil
}

// projectRows rebuilds each flat row element keeping only the referenced
// columns (simulating a projected per-source subquery: narrower rows enter
// the central pipeline).
func projectRows(rows xdm.Sequence, cols []string) xdm.Sequence {
	keep := make(map[string]bool, len(cols))
	for _, c := range cols {
		keep[c] = true
	}
	out := make(xdm.Sequence, len(rows))
	for i, it := range rows {
		el, ok := it.(*xdm.Element)
		if !ok {
			out[i] = it
			continue
		}
		proj := &xdm.Element{Name: el.Name, Attrs: el.Attrs}
		for _, ch := range el.Children {
			if cel, ok := ch.(*xdm.Element); ok && keep[cel.Name.Local] {
				proj.Children = append(proj.Children, cel)
			}
		}
		out[i] = proj
	}
	return out
}
