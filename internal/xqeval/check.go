package xqeval

import (
	"fmt"
	"strings"

	"repro/internal/xquery"
)

// StaticError is a static (compile-time) error: the query references a
// function or variable that cannot exist at runtime. Real XQuery engines
// reject such queries before execution; Check gives this engine the same
// front-loaded failure behavior for its textual front door.
type StaticError struct {
	Msg string
}

func (e *StaticError) Error() string { return "xquery static error: " + e.Msg }

func staticErr(format string, args ...any) error {
	return &StaticError{Msg: fmt.Sprintf(format, args...)}
}

// Check statically validates a query against this engine: every function
// must resolve (schema-import prefix + registered data service function,
// or a known fn:/fn-bea:/xs: builtin) and every variable reference must be
// bound by an enclosing FLWOR or quantified expression, or declared
// external.
func (e *Engine) Check(q *xquery.Query, external []string) error {
	return e.check(q, external, prologPrefixes(q))
}

// check is Check with the prefix map CompileAST shares with the planner.
func (e *Engine) check(q *xquery.Query, external []string, prefixes map[string]string) error {
	bound := map[string]bool{}
	for _, v := range external {
		bound[v] = true
	}
	c := &checker{engine: e, prefixes: prefixes}
	return c.expr(q.Body, bound)
}

// prologPrefixes maps each schema-import prefix of q's prolog to its
// namespace.
func prologPrefixes(q *xquery.Query) map[string]string {
	prefixes := make(map[string]string, len(q.Prolog.SchemaImports))
	for _, imp := range q.Prolog.SchemaImports {
		prefixes[imp.Prefix] = imp.Namespace
	}
	return prefixes
}

type checker struct {
	engine   *Engine
	prefixes map[string]string
}

// expr validates an expression under the given variable bindings. bound is
// treated as immutable: clause-introduced bindings copy it.
func (c *checker) expr(e xquery.Expr, bound map[string]bool) error {
	switch e := e.(type) {
	case nil:
		return staticErr("missing expression")
	case *xquery.StringLit, *xquery.NumberLit, *xquery.EmptySeq, *xquery.ContextItem, *xquery.RelPath:
		return nil
	case *xquery.Var:
		if !bound[e.Name] {
			return staticErr("unbound variable $%s", e.Name)
		}
		return nil
	case *xquery.FuncCall:
		if err := c.funcName(e); err != nil {
			return err
		}
		for _, a := range e.Args {
			if err := c.expr(a, bound); err != nil {
				return err
			}
		}
		return nil
	case *xquery.Path:
		if err := c.expr(e.Base, bound); err != nil {
			return err
		}
		for _, s := range e.Steps {
			for _, p := range s.Predicates {
				if err := c.expr(p, bound); err != nil {
					return err
				}
			}
		}
		return nil
	case *xquery.Filter:
		if err := c.expr(e.Base, bound); err != nil {
			return err
		}
		for _, p := range e.Predicates {
			if err := c.expr(p, bound); err != nil {
				return err
			}
		}
		return nil
	case *xquery.Binary:
		if err := c.expr(e.Left, bound); err != nil {
			return err
		}
		return c.expr(e.Right, bound)
	case *xquery.Unary:
		return c.expr(e.Operand, bound)
	case *xquery.If:
		if err := c.expr(e.Cond, bound); err != nil {
			return err
		}
		if err := c.expr(e.Then, bound); err != nil {
			return err
		}
		return c.expr(e.Else, bound)
	case *xquery.Cast:
		if _, ok := castTargets[e.Type]; !ok {
			return staticErr("unknown cast target %s", e.Type)
		}
		return c.expr(e.Operand, bound)
	case *xquery.Seq:
		for _, it := range e.Items {
			if err := c.expr(it, bound); err != nil {
				return err
			}
		}
		return nil
	case *xquery.Quantified:
		if err := c.expr(e.In, bound); err != nil {
			return err
		}
		inner := copyBound(bound)
		inner[e.Var] = true
		return c.expr(e.Satisfies, inner)
	case *xquery.FLWOR:
		inner := copyBound(bound)
		for _, clause := range e.Clauses {
			switch clause := clause.(type) {
			case *xquery.For:
				if err := c.expr(clause.In, inner); err != nil {
					return err
				}
				inner[clause.Var] = true
				if clause.At != "" {
					inner[clause.At] = true
				}
			case *xquery.Let:
				if err := c.expr(clause.Expr, inner); err != nil {
					return err
				}
				inner[clause.Var] = true
			case *xquery.Where:
				if err := c.expr(clause.Cond, inner); err != nil {
					return err
				}
			case *xquery.GroupBy:
				if !inner[clause.InVar] {
					return staticErr("group clause over unbound variable $%s", clause.InVar)
				}
				for _, k := range clause.Keys {
					if err := c.expr(k.Expr, inner); err != nil {
						return err
					}
					inner[k.Var] = true
				}
				inner[clause.PartitionVar] = true
			case *xquery.OrderByClause:
				for _, s := range clause.Specs {
					if err := c.expr(s.Expr, inner); err != nil {
						return err
					}
				}
			default:
				return staticErr("unknown FLWOR clause %T", clause)
			}
		}
		if e.Return == nil {
			return staticErr("FLWOR without a return clause")
		}
		return c.expr(e.Return, inner)
	case *xquery.ElementCtor:
		for _, content := range e.Content {
			switch content := content.(type) {
			case *xquery.Enclosed:
				if err := c.expr(content.Expr, bound); err != nil {
					return err
				}
			case *xquery.ElementCtor:
				if err := c.expr(content, bound); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		return staticErr("unknown expression %T", e)
	}
}

func (c *checker) funcName(f *xquery.FuncCall) error {
	prefix, local := xquery.FuncName(f.Name)
	if prefix == "xs" {
		if _, ok := castTargets[f.Name]; ok {
			return nil
		}
		return staticErr("unknown constructor function %s", f.Name)
	}
	if ns, ok := c.prefixes[prefix]; ok {
		if _, found := c.engine.lookup(ns, local); !found {
			return staticErr("no data service function %s in namespace %s", local, ns)
		}
		return nil
	}
	if _, ok := builtins[f.Name]; ok {
		return nil
	}
	if strings.Contains(f.Name, ":") {
		return staticErr("unknown function %s (prefix not bound by a schema import)", f.Name)
	}
	return staticErr("unknown function %s", f.Name)
}

func copyBound(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m)+4)
	for k, v := range m {
		out[k] = v
	}
	return out
}
