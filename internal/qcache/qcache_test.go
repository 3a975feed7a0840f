package qcache

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/obsv"
	"repro/internal/sqlparser"
	"repro/internal/translator"
	"repro/internal/xquery"
)

// fakeCompile returns a CompileFunc that fabricates artifacts and counts
// invocations — cache-mechanics tests don't need a real translation.
func fakeCompile(calls *int) CompileFunc {
	return func(ctx context.Context, sql string) (*CompiledQuery, error) {
		*calls++
		return &CompiledQuery{SQL: sql}, nil
	}
}

func TestNormalizeCanonicalizes(t *testing.T) {
	spellings := []string{
		"SELECT CUSTOMERID FROM CUSTOMERS",
		"select customerid from customers",
		"SELECT\n\tCUSTOMERID\n FROM   CUSTOMERS",
	}
	first, err := (sqlparser.Front{}).Normalize(spellings[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spellings[1:] {
		got, err := (sqlparser.Front{}).Normalize(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("Normalize(%q) = %q, want %q", s, got, first)
		}
	}
}

func TestNormalizeDistinguishesTokenTypes(t *testing.T) {
	// A delimited identifier spelled like a keyword must not key with the
	// keyword; likewise a string literal spelled like an identifier.
	pairs := [][2]string{
		{`SELECT A FROM T`, `SELECT "A" FROM T`},
		{`SELECT A FROM T WHERE B = 'C'`, `SELECT A FROM T WHERE B = C`},
		{`SELECT A FROM T WHERE B = 1`, `SELECT A FROM T WHERE B = '1'`},
	}
	for _, p := range pairs {
		a, err := (sqlparser.Front{}).Normalize(p[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := (sqlparser.Front{}).Normalize(p[1])
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Fatalf("%q and %q normalized identically: %q", p[0], p[1], a)
		}
	}
}

func TestGetCachesByNormalizedSQL(t *testing.T) {
	c := New(Config{})
	calls := 0
	get := func(sql string) *CompiledQuery {
		cq, _, err := c.Get(context.Background(), sql, translator.ModeText, fakeCompile(&calls))
		if err != nil {
			t.Fatal(err)
		}
		return cq
	}
	first := get("SELECT CUSTOMERID FROM CUSTOMERS")
	same := get("select  customerid  from customers") // re-spelled, same key
	if calls != 1 {
		t.Fatalf("compile ran %d times, want 1", calls)
	}
	if first != same {
		t.Fatal("re-spelled statement did not reuse the artifact")
	}
	if first.NormalizedSQL == "" {
		t.Fatal("cached artifact missing NormalizedSQL")
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Size != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestModeSplitsTheKey(t *testing.T) {
	c := New(Config{})
	calls := 0
	for _, mode := range []translator.ResultMode{translator.ModeText, translator.ModeXML} {
		if _, _, err := c.Get(context.Background(), "SELECT A FROM T", mode, fakeCompile(&calls)); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Fatalf("modes shared one artifact (compile ran %d times)", calls)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	calls := 0
	get := func(sql string) {
		if _, _, err := c.Get(context.Background(), sql, translator.ModeText, fakeCompile(&calls)); err != nil {
			t.Fatal(err)
		}
	}
	get("SELECT A FROM T")
	get("SELECT B FROM T")
	get("SELECT A FROM T") // promote A
	get("SELECT C FROM T") // evicts B, the least recently used
	if s := c.Stats(); s.Evictions != 1 || s.Size != 2 {
		t.Fatalf("stats = %+v", s)
	}
	before := calls
	get("SELECT A FROM T") // still cached
	if calls != before {
		t.Fatal("promoted entry was evicted")
	}
	get("SELECT B FROM T") // evicted: recompiles
	if calls != before+1 {
		t.Fatal("evicted entry was still cached")
	}
}

func TestNegativeMaxEntriesDisablesCaching(t *testing.T) {
	c := New(Config{MaxEntries: -1})
	calls := 0
	for i := 0; i < 3; i++ {
		cq, hit, err := c.Get(context.Background(), "SELECT A FROM T", translator.ModeText, fakeCompile(&calls))
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatal("bypass mode reported a hit")
		}
		if cq.NormalizedSQL == "" {
			t.Fatal("bypass mode should still normalize for callers")
		}
	}
	if calls != 3 {
		t.Fatalf("compile ran %d times, want 3", calls)
	}
	if s := c.Stats(); s.Size != 0 {
		t.Fatalf("bypass mode cached: %+v", s)
	}
}

func TestFailuresAreNotCached(t *testing.T) {
	c := New(Config{})
	calls := 0
	boom := errors.New("boom")
	fail := func(ctx context.Context, sql string) (*CompiledQuery, error) {
		calls++
		return nil, boom
	}
	for i := 0; i < 2; i++ {
		if _, _, err := c.Get(context.Background(), "SELECT A FROM T", translator.ModeText, fail); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 2 {
		t.Fatalf("failure was cached (compile ran %d times)", calls)
	}
	if s := c.Stats(); s.Size != 0 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestUnlexableSQLBypassesCache(t *testing.T) {
	c := New(Config{})
	calls := 0
	boom := errors.New("parse boom")
	fail := func(ctx context.Context, sql string) (*CompiledQuery, error) {
		calls++
		return nil, boom
	}
	bad := "SELECT 'unterminated FROM T"
	if _, err := (sqlparser.Front{}).Normalize(bad); err == nil {
		t.Fatal("test needs SQL that fails to lex")
	}
	if _, _, err := c.Get(context.Background(), bad, translator.ModeText, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v (compile's canonical error should surface)", err)
	}
	if calls != 1 {
		t.Fatalf("compile ran %d times", calls)
	}
	if s := c.Stats(); s.Misses != 0 {
		t.Fatalf("bypassed lookup counted as a miss: %+v", s)
	}
}

// TestGenerationRetiresArtifacts: an artifact is served while its
// metadata stamp holds; once a source generation moves the stamp, the
// next hit retires it and recompiles.
func TestGenerationRetiresArtifacts(t *testing.T) {
	var gen uint64
	c := New(Config{Stamp: func(*CompiledQuery) uint64 { return gen }})
	calls := 0
	get := func() {
		if _, _, err := c.Get(context.Background(), "SELECT A FROM T", translator.ModeText, fakeCompile(&calls)); err != nil {
			t.Fatal(err)
		}
	}
	get()
	get()
	if calls != 1 {
		t.Fatalf("same generation recompiled (%d)", calls)
	}
	gen++ // the catalog changed underneath
	get()
	if calls != 2 {
		t.Fatalf("generation bump did not retire the artifact (%d compiles)", calls)
	}
	if s := c.Stats(); s.SourceRetirements != 1 || s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 retirement, 2 misses, 1 hit", s)
	}
}

func TestCompileBuildsFullArtifact(t *testing.T) {
	app, _, engine := demo.Setup(demo.Sizes{Customers: 4, PaymentsPerCustomer: 1, Orders: 2, ItemsPerOrder: 1})
	tr := translator.New(catalog.NewCache(app))
	tr.Options.Mode = translator.ModeText

	const sql = "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?"
	trace := obsv.NewTrace("")
	res, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, sql, trace)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := Compile(res, engine, sql, trace)
	if err != nil {
		t.Fatal(err)
	}
	if cq.Plan == nil || cq.Res == nil || cq.Trace == nil {
		t.Fatalf("incomplete artifact: %+v", cq)
	}
	if got := cq.ExternalVars(); len(got) != 1 || got[0] != "p1" {
		t.Fatalf("external vars = %v", got)
	}
	if !strings.Contains(cq.XQuery(), "ns0:CUSTOMERS()") {
		t.Fatalf("serialized form missing data service call:\n%s", cq.XQuery())
	}
	var sawCompile bool
	for _, ev := range trace.Stages() {
		if ev.Stage == obsv.StageCompile {
			sawCompile = true
		}
	}
	if !sawCompile {
		t.Fatal("trace missing the compile stage span")
	}
}

func TestCompileRejectsUncheckableQuery(t *testing.T) {
	_, _, engine := demo.Setup(demo.Sizes{Customers: 1, PaymentsPerCustomer: 1, Orders: 1, ItemsPerOrder: 1})
	// A translation whose query names a variable nothing binds fails the
	// engine's static check; Compile must return that error, not a plan.
	q, err := xquery.Parse("$nope")
	if err != nil {
		t.Fatal(err)
	}
	res := &translator.Result{Query: q}
	if _, err := Compile(res, engine, "$nope", obsv.NewTrace("")); err == nil {
		t.Fatal("expected a static check error for an unbound variable")
	}
}
