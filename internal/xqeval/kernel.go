package xqeval

import (
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// kernel.go holds the column kernels. In the paper's relational mapping
// (§3.1) every SQL column is a simple-typed child element of a row element,
// so nearly every join key and WHERE operand the translator emits is a
// column read, $v/COL, whose atomized value is the child's text as
// xs:untypedAtomic. The planner
// recognizes three shapes once per plan: a hash join's build or probe key
// that is a column read; a general comparison between a column read and a
// hoisted invariant operand; and one between two column reads. At run time
// a kernel reads each matching column's text (xdm.Column) as untyped text
// instead of binding a scope, building sequences and boxing atoms, and
// compares through xdm.CompareUntyped — CompareAtomic(Untyped(text), …) to
// the error text. Every kernel charges the steps the generic evaluation
// would have, in the same order, and hands a tuple whose variable is not
// bound to one row, an element or a record, back to the generic path. The
// hash tables the key kernels build and probe are plan_exec.go's. The
// naive evaluator has no kernels: it stays the oracle.

// colRead is a column read $v/col (childPath); the zero value is none.
type colRead struct{ v, col string }

func colReadOf(e xquery.Expr) colRead {
	if v, col, ok := childPath(e); ok {
		return colRead{v, col}
	}
	return colRead{}
}

// row returns the row $v is bound to, when it is bound to exactly one.
func (c colRead) row(t *scope) (xdm.Node, bool) {
	if c.col == "" {
		return nil, false
	}
	return boundRow(t, c.v)
}

// boundRow returns the row — an element or a record — variable v is bound
// to on t, when it is bound to exactly one.
func boundRow(t *scope, name string) (xdm.Node, bool) {
	if v, _ := t.lookupVar(name); len(v) == 1 {
		switch row := v[0].(type) {
		case *xdm.Element:
			return row, true
		case *xdm.Record:
			return row, true
		}
	}
	return nil, false
}

// columnSteps charges what evaluating $v/col charges on a scope at depth:
// the path's step, then the variable's.
func columnSteps(t *scope, depth int64) error {
	if err := t.stepAt(depth); err != nil {
		return err
	}
	return t.stepAt(depth)
}

// columnAtoms is fn:data($row/col), boxed: the generic key, for the rare
// comparisons the kernels leave to the generic code.
func columnAtoms(row xdm.Node, col string) xdm.Sequence {
	var out xdm.Sequence
	for text, i := xdm.NextColumn(row, col, 0); i >= 0; text, i = xdm.NextColumn(row, col, i) {
		out = append(out, xdm.Untyped(text))
	}
	return out
}

// filterKernel is a filter conjunct that compares column reads with hoisted
// operands, or with each other, by a general comparison operator.
type filterKernel struct {
	op    xdm.CompareOp
	sides [2]colRead // zero on a hoisted side
}

// columnFilterOf recognizes a kernel filter: a general comparison each of
// whose operands is a column read or hoisted (op.operandState), at least
// one a column read.
func columnFilterOf(op *planOp) *filterKernel {
	b, ok := op.cond.(*xquery.Binary)
	if !ok {
		return nil
	}
	cmp, ok := generalCompareOps[b.Op]
	if !ok {
		return nil
	}
	k := &filterKernel{op: cmp}
	for side, e := range [2]xquery.Expr{b.Left, b.Right} {
		k.sides[side] = colReadOf(e)
		if k.sides[side].col == "" && op.operandState[side] < 0 {
			return nil
		}
	}
	if k.sides[0].col == "" && k.sides[1].col == "" {
		return nil
	}
	return k
}

// columnFilter runs op's kernel on t. handled is false, with nothing
// charged, when a column read's variable is not bound to one row: the
// caller then takes the generic path. compare reads the rows again rather
// than take them from this frame, which the hoisted operand's first
// evaluation runs below: a few bytes more here cost a point lookup's
// evaluation goroutine a second stack growth.
func (ex *flworExec) columnFilter(op *planOp, t *scope) (ok, handled bool, err error) {
	k := op.column
	for _, c := range k.sides {
		if _, bound := c.row(t); c.col != "" && !bound {
			return false, false, nil
		}
	}
	// The comparison's step, then each operand's, as evalFilter charges.
	if err := t.step(); err != nil {
		return false, true, err
	}
	var atoms [2]xdm.Sequence
	for i, c := range k.sides {
		if c.col != "" {
			err = columnSteps(t, t.depth)
		} else {
			atoms[i], err = ex.operand(op, i, t)
		}
		if err != nil {
			return false, true, err
		}
	}
	ok, err = k.compare(t, atoms)
	return ok, true, err
}

// compare is evalGeneralCompare over the two sides — a column's texts or a
// hoisted operand's atoms — with the same loop nesting (left outer), so the
// first error or match is the one the generic code meets.
func (k *filterKernel) compare(t *scope, atoms [2]xdm.Sequence) (bool, error) {
	lcol, rcol := k.sides[0].col, k.sides[1].col
	var rows [2]xdm.Node
	rows[0], _ = k.sides[0].row(t)
	rows[1], _ = k.sides[1].row(t)
	if rows[0] == nil {
		// CompareAtomic(l, Untyped(rt), op) is CompareUntyped(rt, l) under
		// the mirrored operator.
		op := mirrored(k.op)
		for _, l := range atoms[0] {
			for rt, j := xdm.NextColumn(rows[1], rcol, 0); j >= 0; rt, j = xdm.NextColumn(rows[1], rcol, j) {
				if ok, err := xdm.CompareUntyped(rt, l.(xdm.Atomic), op); err != nil || ok {
					return ok, wrapCompareErr(err)
				}
			}
		}
		return false, nil
	}
	for lt, i := xdm.NextColumn(rows[0], lcol, 0); i >= 0; lt, i = xdm.NextColumn(rows[0], lcol, i) {
		if rows[1] == nil {
			for _, r := range atoms[1] {
				if ok, err := xdm.CompareUntyped(lt, r.(xdm.Atomic), k.op); err != nil || ok {
					return ok, wrapCompareErr(err)
				}
			}
			continue
		}
		for rt, j := xdm.NextColumn(rows[1], rcol, 0); j >= 0; rt, j = xdm.NextColumn(rows[1], rcol, j) {
			if ok, err := xdm.CompareUntyped(lt, xdm.Untyped(rt), k.op); err != nil || ok {
				return ok, wrapCompareErr(err)
			}
		}
	}
	return false, nil
}

// wrapCompareErr is evalGeneralCompare's error wrapping.
func wrapCompareErr(err error) error {
	if err == nil {
		return nil
	}
	return dynErr("%v", err)
}

// mirrored is the operator that holds with the operands swapped.
func mirrored(op xdm.CompareOp) xdm.CompareOp {
	switch op {
	case xdm.OpLt:
		return xdm.OpGt
	case xdm.OpLe:
		return xdm.OpGe
	case xdm.OpGt:
		return xdm.OpLt
	case xdm.OpGe:
		return xdm.OpLe
	}
	return op
}
