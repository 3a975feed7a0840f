// Nets for values kept with the plan (keep.go): a closed let's value or
// hash build table is built by the first evaluation of a plan and reused
// by the later ones, until a registration changes the sources under it.
package xqeval_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
	"repro/internal/xquery"
)

// keptReport is the demo GROUP BY report: the join and grouping read no
// parameter, so the let-bound RECORDSET under the HAVING filter is kept.
const keptReport = "SELECT C.CITY, COUNT(*) CNT FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID GROUP BY C.CITY HAVING COUNT(*) > ?"

// keptPlan translates sql over a small demo dataset and compiles it as the
// platform does.
func keptPlan(t testing.TB, sql string) (*xqeval.Engine, *translator.Result, *xqeval.Plan) {
	t.Helper()
	app, _, e := demo.Setup(demo.Sizes{Customers: 12, PaymentsPerCustomer: 2, Orders: 30, ItemsPerOrder: 2})
	res, err := translator.New(catalog.NewCache(app)).Translate(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(res.Query, externalNames(res.ParamCount))
	if err != nil {
		t.Fatal(err)
	}
	return e, res, plan
}

func intParam(v int64) map[string]xdm.Sequence {
	return map[string]xdm.Sequence{"p1": xdm.SequenceOf(xdm.Integer(v))}
}

// mustMatchNaive evaluates plan and fails unless it gives the naive
// oracle's items.
func mustMatchNaive(t testing.TB, e *xqeval.Engine, q *xquery.Query, plan *xqeval.Plan, ext map[string]xdm.Sequence) string {
	t.Helper()
	got, err := e.EvalPlanWithTrace(context.Background(), plan, ext, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.EvalNaiveWithTrace(context.Background(), q, ext, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := xdm.MarshalSequence(got), xdm.MarshalSequence(want); g != w {
		t.Fatalf("planned diverges from naive\nplanned: %s\nnaive:   %s", g, w)
	}
	return xdm.MarshalSequence(got)
}

// TestKeptReportReusedAcrossParameters: a second evaluation with another
// parameter value reuses the first one's RECORDSET, gives the naive rows,
// and is charged what a build would have charged.
func TestKeptReportReusedAcrossParameters(t *testing.T) {
	e, res, plan := keptPlan(t, keptReport)
	if d := strings.Join(plan.Describe(), "\n"); !strings.Contains(d, "[invariant] [kept with plan]") {
		t.Fatalf("the report's RECORDSET is not kept:\n%s", d)
	}
	fresh, err := e.CompileAST(res.Query, externalNames(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []int64{0, 1} {
		mustMatchNaive(t, e, res.Query, fresh, intParam(p))
		before := e.Stats()
		got, err := e.EvalPlanWithTrace(context.Background(), plan, intParam(p), nil)
		if err != nil {
			t.Fatal(err)
		}
		after := e.Stats()
		builds, reuses := after.KeptBuilds-before.KeptBuilds, after.KeptReuses-before.KeptReuses
		if want := int64(1 - i); builds != want || reuses != int64(i) {
			t.Fatalf("evaluation %d: %d builds and %d reuses, want %d and %d", i+1, builds, reuses, want, i)
		}
		steps := after.EvalSteps - before.EvalSteps
		// The same parameter on a fresh plan builds: the same rows, the
		// same charge.
		fresh, _ = e.CompileAST(res.Query, externalNames(1))
		before = e.Stats()
		want, err := e.EvalPlanWithTrace(context.Background(), fresh, intParam(p), nil)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := xdm.MarshalSequence(got), xdm.MarshalSequence(want); g != w {
			t.Fatalf("evaluation %d: %s, a build %s", i+1, g, w)
		}
		if built := e.Stats().EvalSteps - before.EvalSteps; steps != built {
			t.Fatalf("evaluation %d charged %d steps, a build %d", i+1, steps, built)
		}
	}
}

// TestKeptValueFollowsRegistration: RegisterRows replacing a source
// between two evaluations of one plan retires what the first kept, so the
// second sees the new rows.
func TestKeptValueFollowsRegistration(t *testing.T) {
	e, res, plan := keptPlan(t, keptReport)
	ext := intParam(0)
	first := mustMatchNaive(t, e, res.Query, plan, ext)
	d := demo.Generate(demo.Sizes{Customers: 12, PaymentsPerCustomer: 2, Orders: 30, ItemsPerOrder: 2})
	e.RegisterRows("ld:TestDataServices/PO_CUSTOMERS", "PO_CUSTOMERS", d.POCustomers[:10])
	builds := e.Stats().KeptBuilds
	second := mustMatchNaive(t, e, res.Query, plan, ext)
	if first == second {
		t.Fatalf("a third of the orders gone, and the report did not change: %s", second)
	}
	if e.Stats().KeptBuilds != builds+1 {
		t.Fatalf("the second evaluation did not rebuild")
	}
}

// TestKeptValueRetiredByMiddleware: middleware installed after a value was
// kept makes the next evaluation build again, through the middleware.
func TestKeptValueRetiredByMiddleware(t *testing.T) {
	e, res, plan := keptPlan(t, keptReport)
	mustMatchNaive(t, e, res.Query, plan, intParam(0))
	fault := errors.New("injected fault")
	e.Use(func(name string, fn xqeval.ContextFunc) xqeval.ContextFunc {
		return func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			return nil, fault
		}
	})
	if _, err := e.EvalPlanWithTrace(context.Background(), plan, intParam(0), nil); !errors.Is(err, fault) {
		t.Fatalf("evaluation after Use: %v, want the injected fault", err)
	}
}

// TestFailedBuildsAreNotKept: a build a limit or a cancellation stopped
// leaves nothing for the next evaluation, which builds in full.
func TestFailedBuildsAreNotKept(t *testing.T) {
	e, res, plan := keptPlan(t, keptReport)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EvalPlanWithTrace(ctx, plan, intParam(0), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled evaluation: %v", err)
	}
	e.SetLimits(xqeval.Limits{MaxTuples: 5})
	if _, err := e.EvalPlanWithTrace(context.Background(), plan, intParam(0), nil); err == nil {
		t.Fatal("no limit trip under MaxTuples 5")
	}
	if s := e.Stats(); s.KeptBuilds != 0 {
		t.Fatalf("%d failed builds kept", s.KeptBuilds)
	}
	e.SetLimits(xqeval.Limits{})
	mustMatchNaive(t, e, res.Query, plan, intParam(0))
	if s := e.Stats(); s.KeptBuilds != 1 || s.KeptReuses != 0 {
		t.Fatalf("after the failures: %d builds, %d reuses, want 1 and 0", s.KeptBuilds, s.KeptReuses)
	}
}

// TestKeptValueUnderLimits: a limit the build would cross trips on the
// plan that kept it exactly as on a fresh plan, which builds.
func TestKeptValueUnderLimits(t *testing.T) {
	e, res, plan := keptPlan(t, keptReport)
	mustMatchNaive(t, e, res.Query, plan, intParam(0))
	defer e.SetLimits(xqeval.Limits{})
	for _, lim := range []xqeval.Limits{{MaxTuples: 20}, {MaxRows: 4}, {MaxDepth: 3}} {
		e.SetLimits(lim)
		fresh, err := e.CompileAST(res.Query, externalNames(1))
		if err != nil {
			t.Fatal(err)
		}
		_, kerr := e.EvalPlanWithTrace(context.Background(), plan, intParam(0), nil)
		_, ferr := e.EvalPlanWithTrace(context.Background(), fresh, intParam(0), nil)
		if kerr == nil || ferr == nil || kerr.Error() != ferr.Error() {
			t.Fatalf("under %+v: kept plan %v, fresh plan %v", lim, kerr, ferr)
		}
	}
}

// TestKeptValuesReleasedWithPlan: a collected plan returns its kept
// values' share of the engine's budget, also when a registered function
// reached the plan until it let go, as a platform's compile cache does on
// eviction. And a plan a registered function still reaches pins nothing:
// the engine is collected once nothing outside refers to it.
func TestKeptValuesReleasedWithPlan(t *testing.T) {
	e, res, plan := keptPlan(t, keptReport)
	var mu sync.Mutex
	cache := map[string]*xqeval.Plan{"report": plan}
	e.Register("urn:x", "cache", func([]xdm.Sequence) (xdm.Sequence, error) {
		mu.Lock()
		defer mu.Unlock()
		return xdm.SequenceOf(xdm.Integer(len(cache))), nil
	})
	mustMatchNaive(t, e, res.Query, plan, intParam(0))
	if xqeval.KeptItems(e) == 0 {
		t.Fatal("the report kept nothing")
	}
	plan = nil
	mu.Lock()
	delete(cache, "report")
	mu.Unlock()
	if !collectUntil(func() bool { return xqeval.KeptItems(e) == 0 }) {
		t.Fatalf("%d kept items still held after the plan was collected", xqeval.KeptItems(e))
	}

	if !collectUntil(keptEngineCollected(t).Load) {
		t.Fatal("an engine whose plan kept a value was never collected")
	}
}

// keptEngineCollected keeps the report's RECORDSET on a plan that one of
// the engine's registered functions holds, and reports when the engine
// is collected.
func keptEngineCollected(t *testing.T) *atomic.Bool {
	e, res, plan := keptPlan(t, keptReport)
	cache := map[string]*xqeval.Plan{"report": plan}
	e.Register("urn:x", "cache", func([]xdm.Sequence) (xdm.Sequence, error) {
		return xdm.SequenceOf(xdm.Integer(len(cache))), nil
	})
	mustMatchNaive(t, e, res.Query, plan, intParam(0))
	collected := new(atomic.Bool)
	runtime.SetFinalizer(e, func(*xqeval.Engine) { collected.Store(true) })
	return collected
}

// collectUntil collects garbage until done reports true, for at most two
// seconds, and says whether it did.
func collectUntil(done func() bool) bool {
	for i := 0; i < 200; i++ {
		runtime.GC()
		if done() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// keptEngine serves T, n rows whose K is 1, and U, n rows keyed 1…n.
func keptEngine(n int) *xqeval.Engine {
	e := xqeval.New()
	e.RegisterRows("urn:k", "T", keptRows("T", n, func(int) string { return "1" }))
	e.RegisterRows("urn:k", "U", keptRows("U", n, func(i int) string { return xdm.Integer(i + 1).Lexical() }))
	return e
}

func keptRows(name string, n int, key func(int) string) []*xdm.Element {
	rows := make([]*xdm.Element, n)
	for i := range rows {
		rows[i] = xdm.NewElement(name)
		rows[i].AddChild(xdm.NewTextElement("K", key(i)))
		rows[i].AddChild(xdm.NewTextElement("V", xdm.Integer(i).Lexical()))
	}
	return rows
}

const keptProlog = `import schema namespace k = "urn:k" at "k.xsd";` + "\n"

// TestNeverKept: a let reading the clock or the context item, and a
// many-to-many RECORDSET larger than the engine's registered rows, are
// built by every evaluation — with the same rows each time.
func TestNeverKept(t *testing.T) {
	for _, c := range []struct{ name, body string }{
		{"clock", `let $now := <NOW>{fn:current-dateTime()}</NOW>
for $u in k:U() where $u/K > $p1 return fn:count($now)`},
		{"oversized", `let $rs := <RECORDSET>{for $a in k:T() for $b in k:T() where $a/K = $b/K return <RECORD>{fn:data($a/V)}</RECORD>}</RECORDSET>
for $r in $rs/RECORD where $r > $p1 return $r`},
		{"context", `k:U()[let $v := <R>{(fn:data(K), k:T()[1]/K)}</R> return fn:data($v) = "11"]`},
	} {
		q, err := xquery.Parse(keptProlog + c.body)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		e := keptEngine(20) // 40 registered rows; the oversized RECORDSET holds 400
		plan, err := e.CompileAST(q, []string{"p1"})
		if err != nil {
			t.Fatal(err)
		}
		kept := strings.Contains(strings.Join(plan.Describe(), "\n"), "[kept with plan]")
		if kept != (c.name == "oversized") {
			t.Fatalf("%s: [kept with plan] shown %v:\n%s", c.name, kept, strings.Join(plan.Describe(), "\n"))
		}
		var first string
		for i := 0; i < 2; i++ {
			got := mustMatchNaive(t, e, q, plan, intParam(3))
			if i == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s: second evaluation differs", c.name)
			}
		}
		if s := e.Stats(); s.KeptBuilds != 0 || s.KeptReuses != 0 {
			t.Fatalf("%s: %d builds kept, %d reused", c.name, s.KeptBuilds, s.KeptReuses)
		}
	}
}

// TestKeptConcurrentFirstEvaluations: eight evaluations of one fresh plan
// start at once; each builds or reuses, every one gives the naive rows,
// and exactly one build per closed build is kept. Under -race this is the
// net for the kept nodes being read, never written, once built.
func TestKeptConcurrentFirstEvaluations(t *testing.T) {
	for _, sql := range []string{
		keptReport,
		"SELECT C.CUSTOMERID, C.CUSTOMERNAME, O.ORDERID, O.TOTAL FROM CUSTOMERS C LEFT OUTER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID WHERE C.CUSTOMERID >= ?",
		"SELECT C.CUSTOMERID, C.CUSTOMERNAME FROM CUSTOMERS C WHERE NOT EXISTS (SELECT 1 FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID AND O.TOTAL > ?)",
		"SELECT O.ORDERID, I.PRODUCT FROM PO_CUSTOMERS O INNER JOIN PO_ITEMS I ON O.ORDERID = I.ORDERID WHERE O.CUSTOMERID = ?",
	} {
		e, res, plan := keptPlan(t, sql)
		ext := intParam(1003)
		want, err := e.EvalNaiveWithTrace(context.Background(), res.Query, ext, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := e.EvalPlanWithTrace(context.Background(), plan, ext, nil)
				if err == nil && xdm.MarshalSequence(got) != xdm.MarshalSequence(want) {
					err = errors.New("planned diverges from naive: " + xdm.MarshalSequence(got))
				}
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
		}
		if s := e.Stats(); s.KeptBuilds != 1 || s.KeptReuses > 7 {
			t.Fatalf("%q: %d builds kept, %d reused, want 1 and at most 7", sql, s.KeptBuilds, s.KeptReuses)
		}
	}
}

// TestKeptValueReregisteredMidRun: while four goroutines evaluate one
// plan, another swaps the source between two row sets. Every result is
// the naive result over one of them, never a stale or mixed one once the
// swaps stop.
func TestKeptValueReregisteredMidRun(t *testing.T) {
	e, res, plan := keptPlan(t, keptReport)
	d := demo.Generate(demo.Sizes{Customers: 12, PaymentsPerCustomer: 2, Orders: 30, ItemsPerOrder: 2})
	sets := [2][]*xdm.Element{d.POCustomers, d.POCustomers[:10]}
	ext := intParam(0)
	var wants [2]string
	for i, rows := range sets {
		e.RegisterRows("ld:TestDataServices/PO_CUSTOMERS", "PO_CUSTOMERS", rows)
		naive, err := e.EvalNaiveWithTrace(context.Background(), res.Query, ext, nil)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = xdm.MarshalSequence(naive)
	}
	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				got, err := e.EvalPlanWithTrace(context.Background(), plan, ext, nil)
				if g := xdm.MarshalSequence(got); err == nil && g != wants[0] && g != wants[1] {
					err = errors.New("a result from neither row set: " + g)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		e.RegisterRows("ld:TestDataServices/PO_CUSTOMERS", "PO_CUSTOMERS", sets[i%2])
	}
	stop()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The last registration holds sets[1]: nothing kept earlier may show.
	for i := 0; i < 2; i++ {
		if got := mustMatchNaive(t, e, res.Query, plan, ext); got != wants[1] {
			t.Fatalf("after the swaps: %s, want %s", got, wants[1])
		}
	}
}
