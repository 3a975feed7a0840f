package xqeval

import (
	"strings"
	"testing"

	"repro/internal/xquery"
)

func checkSrc(t *testing.T, e *Engine, src string, external ...string) error {
	t.Helper()
	q, err := xquery.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e.Check(q, external)
}

func checkEngine() *Engine {
	e := New()
	e.RegisterRows("urn:t", "T", nil)
	return e
}

const checkProlog = `import schema namespace t = "urn:t" at "t.xsd";` + "\n"

func TestCheckAcceptsValidQueries(t *testing.T) {
	e := checkEngine()
	good := []string{
		checkProlog + `for $x in t:T() where ($x/A = 1) return fn:data($x/B)`,
		checkProlog + `fn:count(t:T())`,
		checkProlog + `for $r in t:T() group $r as $p by $r/K as $k return ($k, fn:count($p))`,
		checkProlog + `let $v := t:T() for $x in $v order by $x/N return <R><N>{fn:data($x/N)}</N></R>`,
		`some $q in (1, 2, 3) satisfies ($q = 2)`,
		`xs:integer("42") + 1`,
		`for $x at $i in (1, 2) return $i`,
	}
	for _, src := range good {
		if err := checkSrc(t, e, src); err != nil {
			t.Errorf("Check(%q) = %v, want nil", src, err)
		}
	}
}

func TestCheckRejectsStaticErrors(t *testing.T) {
	e := checkEngine()
	bad := []struct{ src, want string }{
		{`$nope`, "unbound variable"},
		{`fn:no-such(1)`, "unknown function"},
		{`xs:nonsense(1)`, "unknown cast target"},
		{`ns9:F()`, "prefix not bound"},
		{checkProlog + `t:MISSING()`, "no data service function"},
		{`for $x in (1) return $y`, "unbound variable $y"},
		{`for $x in (1, 2) group $z as $p by $x as $k return $k`, "unbound variable $z"},
		{checkProlog + `for $x in t:T() return xs:bogus($x)`, "unknown cast target"},
	}
	for _, c := range bad {
		err := checkSrc(t, e, c.src)
		if err == nil {
			t.Errorf("Check(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Check(%q) error %q missing %q", c.src, err, c.want)
		}
		if _, ok := err.(*StaticError); !ok {
			t.Errorf("Check(%q) error type %T", c.src, err)
		}
	}
}

func TestCheckExternalVariables(t *testing.T) {
	e := checkEngine()
	if err := checkSrc(t, e, `$p1 + 1`); err == nil {
		t.Fatal("undeclared external should fail")
	}
	if err := checkSrc(t, e, `$p1 + 1`, "p1"); err != nil {
		t.Fatalf("declared external failed: %v", err)
	}
}

func TestCheckScoping(t *testing.T) {
	e := checkEngine()
	// A FLWOR variable is not visible outside its FLWOR.
	src := `(for $x in (1) return $x, $x)`
	if err := checkSrc(t, e, src); err == nil {
		t.Fatal("FLWOR variable must not leak to siblings")
	}
	// Quantified variable scope likewise.
	if err := checkSrc(t, e, `(some $q in (1) satisfies $q, $q)`); err == nil {
		t.Fatal("quantified variable must not leak")
	}
}

// TestCheckAgreesWithEval: for every translated conformance query shape the
// Check pass must accept what evaluation executes (tested indirectly through the
// translator round-trip suite); here we just confirm Check + evaluation agree on
// a representative generated query.
func TestCheckThenEval(t *testing.T) {
	e := New()
	e.RegisterRows("urn:t", "T", nil)
	src := checkProlog + `fn:string-join(
		let $actualQuery := <RECORDSET>{for $x in t:T() return <RECORD><N>{fn:data($x/N)}</N></RECORD>}</RECORDSET>
		for $tokenQuery in $actualQuery/RECORD
		return (">", fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/N))), "&null;"))
	, "")`
	q, err := xquery.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Check(q, nil); err != nil {
		t.Fatalf("check: %v", err)
	}
	if _, err := evalQuery(e, q, nil); err != nil {
		t.Fatalf("eval: %v", err)
	}
}
