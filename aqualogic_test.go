package aqualogic

import (
	"context"
	"database/sql"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/xdm"
)

func TestDemoQuery(t *testing.T) {
	p := Demo()
	rows, err := p.Query("SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID < ? ORDER BY CUSTOMERID", 1003)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("rows = %d", rows.Len())
	}
	rows.Next()
	id, ok, err := rows.Int64(0)
	if err != nil || !ok || id != 1000 {
		t.Fatalf("id = %d %v %v", id, ok, err)
	}
}

func TestQueryModeEquivalence(t *testing.T) {
	p := Demo()
	q := "SELECT CITY, COUNT(*) AS N FROM CUSTOMERS GROUP BY CITY ORDER BY 2 DESC, CITY"
	a, err := p.QueryStreamMode(context.Background(), ModeText, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.QueryStreamMode(context.Background(), ModeXML, q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("text %d vs xml %d rows", a.Len(), b.Len())
	}
	for a.Next() && b.Next() {
		s1, ok1, _ := a.String(0)
		s2, ok2, _ := b.String(0)
		if s1 != s2 || ok1 != ok2 {
			t.Fatalf("city %q/%v vs %q/%v", s1, ok1, s2, ok2)
		}
	}
}

func TestParamCountMismatch(t *testing.T) {
	p := Demo()
	if _, err := p.Query("SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = ?"); err == nil {
		t.Fatal("missing parameter should error")
	}
	if _, err := p.Query("SELECT CUSTOMERID FROM CUSTOMERS", 1); err == nil {
		t.Fatal("extra parameter should error")
	}
}

// stageCount reads how many times the platform's per-stage histogram saw
// the named stage.
func stageCount(p *Platform, stage string) int64 {
	for _, st := range p.Stats().Stages {
		if st.Stage == stage {
			return st.Count
		}
	}
	return 0
}

// TestCompileRecordsNoSerialize: a compile hands the AST to the engine and
// renders no query text, so its trace has no serialize span; EXPLAIN of
// the artifact renders the text itself and prints the serialize row, with
// the text's byte count, between generate and compile — without writing
// the artifact's trace.
func TestCompileRecordsNoSerialize(t *testing.T) {
	p := Demo()
	cq, err := p.CompileContext(context.Background(), "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ? AND CITY = ?", ModeText)
	if err != nil {
		t.Fatal(err)
	}
	stages := func() string {
		var names []string
		for _, ev := range cq.Trace.Stages() {
			names = append(names, ev.Stage.String())
		}
		return strings.Join(names, " ")
	}
	const want = "lex parse semantic-validate restructure generate compile"
	if got := stages(); got != want {
		t.Fatalf("compile trace stages = %q, want %q", got, want)
	}
	if n := stageCount(p, "serialize"); n != 0 {
		t.Fatalf("a compile recorded %d serialize spans", n)
	}

	explain := strings.Join(cq.Explain(), "\n")
	row := regexp.MustCompile(`(?m)^generate .*\nserialize +\S+ +- +(\d+) +-\ncompile `).FindStringSubmatch(explain)
	if row == nil {
		t.Fatalf("EXPLAIN has no serialize row between generate and compile:\n%s", explain)
	}
	if row[1] != strconv.Itoa(len(cq.XQuery())) {
		t.Fatalf("serialize row says %s bytes, the text is %d", row[1], len(cq.XQuery()))
	}
	if got := stages(); got != want {
		t.Fatalf("EXPLAIN wrote the artifact's trace: stages now %q", got)
	}
	if n := stageCount(p, "serialize"); n != 1 {
		t.Fatalf("serialize histogram = %d after one EXPLAIN, want 1", n)
	}
}

// TestFacadeSurface pins the platform's Query*, Compile*, Translate* and
// Explain* methods to one entry per job, so a new variant fails here.
// QueryTimeout and CompileStats share the prefixes but take no statement:
// they read the session's deadline and the compile cache's counters.
func TestFacadeSurface(t *testing.T) {
	want := []string{
		"CompileContext", "CompileDialect", "CompileStats",
		"Explain",
		"Query", "QueryDialect", "QueryStreamMode", "QueryTimeout",
		"Translate",
	}
	var got []string
	typ := reflect.TypeOf(&Platform{})
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		for _, prefix := range []string{"Query", "Compile", "Translate", "Explain"} {
			if strings.HasPrefix(name, prefix) {
				got = append(got, name)
				break
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*Platform entry points = %v, want %v", got, want)
	}
}

func TestTranslateText(t *testing.T) {
	p := Demo()
	res, err := p.Translate("SELECT * FROM CUSTOMERS", ModeXML)
	if err != nil {
		t.Fatal(err)
	}
	if xq := res.XQuery(); !strings.Contains(xq, "for $var1FR1 in ns0:CUSTOMERS()") {
		t.Fatalf("xquery:\n%s", res.XQuery())
	}
}

func TestRegisterDriverRoundTrip(t *testing.T) {
	p := Demo()
	p.RegisterDriver("facade-test")
	db, err := sql.Open("aqualogic", "facade-test")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM CUSTOMERS").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("count = %d", n)
	}
}

func TestMetadataLatencyAndCache(t *testing.T) {
	p := Demo()
	p.MetadataLatency = time.Millisecond
	if _, err := p.Query("SELECT CUSTOMERID FROM CUSTOMERS"); err != nil {
		t.Fatal(err)
	}
	// A distinct statement over the same table recompiles (compile-cache
	// miss) but finds the table metadata already cached.
	if _, err := p.Query("SELECT CUSTOMERNAME FROM CUSTOMERS"); err != nil {
		t.Fatal(err)
	}
	stats := p.MetadataStats()
	if stats.Misses != 1 || stats.Hits < 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Repeating a statement verbatim is a compile-cache hit: no translation,
	// no catalog traffic at all.
	if _, err := p.Query("SELECT CUSTOMERID FROM CUSTOMERS"); err != nil {
		t.Fatal(err)
	}
	cs := p.CompileStats()
	if cs.Hits < 1 || cs.Misses != 2 {
		t.Fatalf("compile stats = %+v", cs)
	}
	if after := p.MetadataStats(); after.Misses != stats.Misses {
		t.Fatalf("compile-cache hit still fetched metadata: %+v", after)
	}
}

func TestCustomPlatform(t *testing.T) {
	app := &Application{Name: "MyApp"}
	app.AddDSFile(&DSFile{
		Path: "Sales",
		Name: "REGIONS",
		Functions: []*Function{
			NewRelationalImport("Sales", "REGIONS", []Column{
				{Name: "REGIONID", Type: SQLInteger},
				{Name: "NAME", Type: SQLVarchar, Nullable: true},
			}),
		},
	})
	engine := NewEngine()
	RegisterRows(engine, "ld:Sales/REGIONS", "REGIONS", []*Element{
		NewRow("REGIONS", "REGIONID", "1", "NAME", "West"),
		NewRow("REGIONS", "REGIONID", "2", "NAME", "East"),
		NewRow("REGIONS", "REGIONID", "3", "NAME", ""), // NULL name
	})
	p := New(app, engine)
	rows, err := p.Query("SELECT NAME FROM REGIONS ORDER BY REGIONID")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for rows.Next() {
		s, ok, _ := rows.String(0)
		if !ok {
			s = "NULL"
		}
		got = append(got, s)
	}
	if strings.Join(got, ",") != "West,East,NULL" {
		t.Fatalf("got %v", got)
	}
}

func TestToAtomic(t *testing.T) {
	cases := []any{int(1), int32(2), int64(3), float32(1.5), float64(2.5),
		true, "x", []byte("y"), time.Now(), xdm.Integer(9)}
	for _, c := range cases {
		if _, err := ToAtomic(c); err != nil {
			t.Fatalf("ToAtomic(%T): %v", c, err)
		}
	}
	if _, err := ToAtomic(struct{}{}); err == nil {
		t.Fatal("unsupported type should error")
	}
}

func TestNewRowSkipsEmptyValues(t *testing.T) {
	row := NewRow("R", "A", "1", "B", "")
	if row.FirstChildElement("A") == nil {
		t.Fatal("A missing")
	}
	if row.FirstChildElement("B") != nil {
		t.Fatal("empty value should be skipped (NULL)")
	}
}

// openSQL opens a database/sql handle for a registered server name.
func openSQL(t *testing.T, name string) *sql.DB {
	t.Helper()
	db, err := sql.Open("aqualogic", name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}
