package xquery

// analyze.go holds the static-analysis helpers the evaluator's query
// planner builds on: conjunct decomposition of where conditions,
// free-variable analysis of expressions and the consumer analysis of
// constructed records. All are pure AST walks — no evaluation, no metadata
// access — so they are usable at plan time on shared, immutable trees.

// SplitConjuncts flattens a (possibly nested) `and` tree into its conjunct
// list, in left-to-right evaluation order. Non-`and` expressions are their
// own single conjunct.
func SplitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "and" {
		return append(SplitConjuncts(b.Left), SplitConjuncts(b.Right)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds an `and` tree from a conjunct list (the inverse of
// SplitConjuncts up to association). An empty list is not representable and
// returns nil.
func JoinConjuncts(conjuncts []Expr) Expr {
	if len(conjuncts) == 0 {
		return nil
	}
	out := conjuncts[0]
	for _, c := range conjuncts[1:] {
		out = &Binary{Op: "and", Left: out, Right: c}
	}
	return out
}

// FreeVars returns the set of variable names referenced by e but not bound
// within it. Binders tracked: FLWOR for/let clauses (including positional
// `at` variables), the BEA group-by extension's key and partition
// variables, and quantified-expression range variables. A group-by
// clause's grouped variable (InVar) is a reference, not a binder.
func FreeVars(e Expr) map[string]bool {
	free := map[string]bool{}
	collectFree(e, nil, free)
	return free
}

// UsesVars reports whether any of the given names occurs free in e. It
// short-cuts the common planner question without materializing the full
// free set for every probe.
func UsesVars(e Expr, names map[string]bool) bool {
	if len(names) == 0 {
		return false
	}
	for v := range FreeVars(e) {
		if names[v] {
			return true
		}
	}
	return false
}

// collectFree accumulates into free the variables of e not present in
// bound. bound is treated as immutable; scopes that add binders clone it.
func collectFree(e Expr, bound map[string]bool, free map[string]bool) {
	switch e := e.(type) {
	case nil:
		return
	case *Var:
		if !bound[e.Name] {
			free[e.Name] = true
		}
	case *StringLit, *NumberLit, *EmptySeq, *ContextItem:
		return
	case *RelPath:
		collectSteps(e.Steps, bound, free)
	case *FuncCall:
		for _, a := range e.Args {
			collectFree(a, bound, free)
		}
	case *Path:
		collectFree(e.Base, bound, free)
		collectSteps(e.Steps, bound, free)
	case *Filter:
		collectFree(e.Base, bound, free)
		for _, p := range e.Predicates {
			collectFree(p, bound, free)
		}
	case *Binary:
		collectFree(e.Left, bound, free)
		collectFree(e.Right, bound, free)
	case *Unary:
		collectFree(e.Operand, bound, free)
	case *If:
		collectFree(e.Cond, bound, free)
		collectFree(e.Then, bound, free)
		collectFree(e.Else, bound, free)
	case *Cast:
		collectFree(e.Operand, bound, free)
	case *Seq:
		for _, it := range e.Items {
			collectFree(it, bound, free)
		}
	case *Quantified:
		collectFree(e.In, bound, free)
		collectFree(e.Satisfies, withBound(bound, e.Var), free)
	case *FLWOR:
		b := cloneBound(bound)
		for _, c := range e.Clauses {
			switch c := c.(type) {
			case *For:
				collectFree(c.In, b, free)
				b[c.Var] = true
				if c.At != "" {
					b[c.At] = true
				}
			case *Let:
				collectFree(c.Expr, b, free)
				b[c.Var] = true
			case *Where:
				collectFree(c.Cond, b, free)
			case *GroupBy:
				for _, k := range c.Keys {
					collectFree(k.Expr, b, free)
				}
				if !b[c.InVar] {
					free[c.InVar] = true
				}
				for _, k := range c.Keys {
					b[k.Var] = true
				}
				b[c.PartitionVar] = true
			case *OrderByClause:
				for _, s := range c.Specs {
					collectFree(s.Expr, b, free)
				}
			}
		}
		collectFree(e.Return, b, free)
	case *ElementCtor:
		for _, c := range e.Content {
			switch c := c.(type) {
			case *Enclosed:
				collectFree(c.Expr, bound, free)
			case *ElementCtor:
				collectFree(c, bound, free)
			}
		}
	}
}

func collectSteps(steps []PathStep, bound, free map[string]bool) {
	for _, s := range steps {
		for _, p := range s.Predicates {
			collectFree(p, bound, free)
		}
	}
}

func cloneBound(bound map[string]bool) map[string]bool {
	out := make(map[string]bool, len(bound)+4)
	for k := range bound {
		out[k] = true
	}
	return out
}

func withBound(bound map[string]bool, name string) map[string]bool {
	out := cloneBound(bound)
	out[name] = true
	return out
}

// RecordReads is the consumer analysis of element constructors. Their
// elements reach a consumer through producers — the constructor, a FLWOR
// returning a producer, either branch of an if — and three consumers of a
// producer P read them only by child name:
//
//	let $t := <RECORDSET>{P}</RECORDSET>   every use of $t is `for $v in $t/RECORD`
//	for $v in P
//	(P)/NAME
//
// when every use of $v, and of $p in a `group $v as $p`, within its scope
// is a predicate-free literal child step ($v/NAME) or the whole argument of
// fn:count, fn:exists or fn:empty, and the scope binds no variable of that
// name again. RecordReads then calls read(ctor, "") for each constructor P
// yields and read(ctor, NAME) per name read, or else read(ctor, "*"). A
// constructor it never reports may be read in any way.
func RecordReads(body Expr, read func(ctor *ElementCtor, name string)) {
	r := recordReads(read)
	WalkExprs(body, func(e Expr) bool {
		switch n := e.(type) {
		case *FLWOR:
			for i, c := range n.Clauses {
				switch c := c.(type) {
				case *For:
					r.consume(n, i, c.In, c.Var, false)
				case *Let:
					if set, ok := c.Expr.(*ElementCtor); ok && len(set.Content) == 1 {
						if p, ok := set.Content[0].(*Enclosed); ok {
							r.consume(n, i, p.Expr, c.Var, true)
						}
					}
				}
			}
		case *Path:
			if namedStep(n.Steps) && r.yield(n.Base, "") {
				r.yield(n.Base, n.Steps[0].Name)
			}
		}
		return true
	})
}

// recordReads is the callback; held in no struct, a closure stays on the stack.
type recordReads func(*ElementCtor, string)

// consume reports how prod's constructors are read via $x bound by f's clause i.
func (r recordReads) consume(f *FLWOR, i int, prod Expr, x string, set bool) {
	if r.yield(prod, "") && !r.uses(f, i, prod, x, set) {
		r.yield(prod, "*")
	}
}

// yield calls r(ctor, name) for each constructor e yields; false if none.
func (r recordReads) yield(e Expr, name string) bool {
	switch e := e.(type) {
	case *ElementCtor:
		r(e, name)
		return true
	case *FLWOR:
		return r.yield(e.Return, name)
	case *If:
		then := r.yield(e.Then, name)
		return r.yield(e.Else, name) || then
	}
	return false
}

// uses reports whether every use of $x in its scope — f's clauses after i,
// and its return — reads prod's elements by name, yielding each name: a
// set's through the fors over it, a group's through its partition too.
func (r recordReads) uses(f *FLWOR, i int, prod Expr, x string, set bool) bool {
	refs, named, binds, ok := 0, 0, 0, true
	bind := func(v string) {
		if v == x {
			binds++
		}
	}
	clauses := func(f *FLWOR, from int) {
		for j := from; j < len(f.Clauses); j++ {
			switch c := f.Clauses[j].(type) {
			case *For:
				bind(c.Var)
				bind(c.At)
				if p, isPath := c.In.(*Path); set && isPath && len(p.Steps) == 1 && isVar(p.Base, x) && namedStep(p.Steps) {
					named++
					ok = r.uses(f, j, prod, c.Var, false) && ok
				}
			case *Let:
				bind(c.Var)
			case *GroupBy:
				for _, k := range c.Keys {
					bind(k.Var)
				}
				bind(c.PartitionVar)
				if c.InVar == x {
					ok = !set && r.uses(f, j, prod, c.PartitionVar, false) && ok
				}
			}
		}
	}
	visit := func(e Expr) bool {
		switch n := e.(type) {
		case *Var:
			if n.Name == x {
				refs++
			}
		case *Path:
			if !set && isVar(n.Base, x) && namedStep(n.Steps) {
				named++
				r.yield(prod, n.Steps[0].Name)
			}
		case *FuncCall:
			if !set && (n.Name == "fn:count" || n.Name == "fn:exists" || n.Name == "fn:empty") && len(n.Args) == 1 && isVar(n.Args[0], x) {
				named++
			}
		case *Quantified:
			bind(n.Var)
		case *FLWOR:
			clauses(n, 0)
		}
		return true
	}
	clauses(f, i+1)
	for _, c := range f.Clauses[i+1:] {
		walkClause(c, visit)
	}
	WalkExprs(f.Return, visit)
	return ok && refs == named && binds == 0
}

// namedStep reports whether steps start with a predicate-free literal name.
func namedStep(steps []PathStep) bool {
	return len(steps) > 0 && steps[0].Name != "*" && len(steps[0].Predicates) == 0
}

func isVar(e Expr, name string) bool {
	v, ok := e.(*Var)
	return ok && v.Name == name
}
