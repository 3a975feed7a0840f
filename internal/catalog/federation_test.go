package catalog

import (
	"context"
	"testing"
)

// TestFederationOneBackendAllocs: a federation of one costs what its
// backend costs. A warm lookup, unqualified or pinned, allocates nothing
// (the Application's answers already name their source, so none is
// copied), and a listing allocates no more than the backend's own.
func TestFederationOneBackendAllocs(t *testing.T) {
	app := Demo()
	fed := NewFederation(app.Name)
	fed.Register(app.Name, app)
	ctx := context.Background()
	for _, ref := range []TableRef{{Table: "CUSTOMERS"}, {Catalog: app.Name, Table: "CUSTOMERS"}} {
		meta, err := fed.LookupContext(ctx, ref) // warms the backend's cache
		if err != nil || meta.Source != app.Name {
			t.Fatalf("lookup %v: %v, %v", ref, meta, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = fed.LookupContext(ctx, ref) }); n != 0 {
			t.Fatalf("warm lookup %v allocates %v times, want 0", ref, n)
		}
	}
	sources := []string{app.Name}
	if n := testing.AllocsPerRun(100, func() { fed.Stamp(sources, true); fed.Stamp(sources, false) }); n != 0 {
		t.Fatalf("Stamp allocates %v times, want 0", n)
	}

	own := testing.AllocsPerRun(20, func() { _, _ = app.Tables() })
	listed := testing.AllocsPerRun(20, func() { _, _ = fed.Tables() })
	if listed > own {
		t.Fatalf("Tables allocates %v times, the backend alone %v", listed, own)
	}
	tables, err := fed.Tables()
	want, _ := app.Tables()
	if err != nil || len(tables) != len(want) {
		t.Fatalf("Tables = %d entries, %v; want %d", len(tables), err, len(want))
	}
	for i, m := range tables {
		if m.Source != app.Name || m.Function != want[i].Function {
			t.Fatalf("entry %d = %+v, want %+v", i, m, want[i])
		}
	}
}

// TestFederationStamp: a statement pinned to sources depends on their
// generations alone; an unpinned one on every backend's.
func TestFederationStamp(t *testing.T) {
	a := &Application{Name: "A"}
	b := &Application{Name: "B"}
	fed := NewFederation("F")
	fed.Register("A", a)
	fed.Register("B", b)
	pinnedA := []string{"A"}
	all, onlyA := fed.Stamp(pinnedA, true), fed.Stamp(pinnedA, false)
	fed.InvalidateSource("b") // names are case-insensitive
	if fed.Stamp(pinnedA, false) != onlyA {
		t.Fatal("invalidating B moved the stamp of a statement pinned to A")
	}
	if fed.Stamp(pinnedA, true) == all {
		t.Fatal("invalidating B left the stamp of an unpinned statement unmoved")
	}
	fed.InvalidateSource("A")
	if fed.Stamp(pinnedA, false) == onlyA {
		t.Fatal("invalidating A left the stamp of a statement pinned to A unmoved")
	}
}

// TestFederationOfOneAnswersAsItsBackend: a federation of one returns its
// backend's negative answers unchanged, so a single-source platform's
// messages read as the application's own.
func TestFederationOfOneAnswersAsItsBackend(t *testing.T) {
	app := &Application{Name: "App"}
	for _, path := range []string{"P1", "P2"} {
		app.AddDSFile(&DSFile{Path: path, Name: "T", Functions: []*Function{NewRelationalImport(path, "T", nil)}})
	}
	fed := NewFederation("App")
	fed.Register("App", app)
	for _, ref := range []TableRef{{Table: "T"}, {Catalog: "App", Table: "T"}, {Table: "NOPE"}} {
		_, got := fed.Lookup(ref)
		pinned := ref
		if pinned.Catalog == "App" {
			pinned.Catalog = ""
		}
		_, want := app.Lookup(pinned)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("lookup %v: federation says %v, application %v", ref, got, want)
		}
	}
}
