package qcache

import (
	"context"
	"testing"

	"repro/internal/translator"
)

// TestStatsGenerationRetiresArtifacts mirrors the catalog-generation test
// for the evaluator's statistics epoch: an explicit stats refresh
// (ANALYZE) must retire every artifact whose plan was costed against the
// old numbers, while a steady epoch keeps serving the cached compile.
func TestStatsGenerationRetiresArtifacts(t *testing.T) {
	var sgen uint64
	c := New(Config{StatsGeneration: func() uint64 { return sgen }})
	calls := 0
	get := func() {
		if _, _, err := c.Get(context.Background(), "SELECT A FROM T", translator.ModeText, fakeCompile(&calls)); err != nil {
			t.Fatal(err)
		}
	}
	get()
	get()
	if calls != 1 {
		t.Fatalf("same stats generation recompiled (%d)", calls)
	}
	cq, hit, err := c.Get(context.Background(), "SELECT A FROM T", translator.ModeText, fakeCompile(&calls))
	if err != nil || !hit {
		t.Fatalf("expected a hit: hit=%v err=%v", hit, err)
	}
	if cq.StatsGen != sgen {
		t.Fatalf("artifact stats generation = %d, want %d", cq.StatsGen, sgen)
	}

	sgen++ // stats refreshed underneath (ANALYZE)
	get()
	if calls != 2 {
		t.Fatalf("stats-generation bump did not retire the artifact (%d compiles)", calls)
	}
	if s := c.Stats(); s.StatsGeneration != sgen {
		t.Fatalf("stats generation in Stats() = %d, want %d", s.StatsGeneration, sgen)
	}
}

// TestFreshFollowsStamps: an artifact stays fresh exactly while the
// metadata stamp and the statistics generation it was stamped under hold,
// also from a disabled cache, which stores nothing but stamps alike.
func TestFreshFollowsStamps(t *testing.T) {
	var gens [2]uint64 // metadata stamp, statistics
	names := [2]string{"metadata", "statistics"}
	for _, maxEntries := range []int{0, -1} {
		c := New(Config{
			MaxEntries:      maxEntries,
			Stamp:           func(*CompiledQuery) uint64 { return gens[0] },
			StatsGeneration: func() uint64 { return gens[1] },
		})
		compile := func(ctx context.Context, sql string) (*CompiledQuery, error) {
			return &CompiledQuery{SQL: sql, Res: &translator.Result{Sources: []string{"billing"}}}, nil
		}
		for i := range gens {
			cq, _, err := c.Get(context.Background(), "SELECT A FROM T", translator.ModeText, compile)
			if err != nil || !c.Fresh(cq) {
				t.Fatalf("MaxEntries %d: a new artifact is not fresh (err %v)", maxEntries, err)
			}
			gens[i]++
			if c.Fresh(cq) {
				t.Fatalf("MaxEntries %d: artifact still fresh after the %s generation moved", maxEntries, names[i])
			}
		}
	}
}

// TestRetiredArtifactReplacedInPlace: a stale artifact — its metadata
// stamp or its statistics generation moved — is retired on its next hit
// and the recompiled one takes its entry, so no unreachable artifact is
// left holding a slot until eviction. Only a metadata move counts as a
// source retirement.
func TestRetiredArtifactReplacedInPlace(t *testing.T) {
	var stamp, sgen uint64
	c := New(Config{
		Stamp:           func(*CompiledQuery) uint64 { return stamp },
		StatsGeneration: func() uint64 { return sgen },
	})
	calls := 0
	get := func() {
		t.Helper()
		if _, _, err := c.Get(context.Background(), "SELECT A FROM T", translator.ModeText, fakeCompile(&calls)); err != nil {
			t.Fatal(err)
		}
	}
	get()
	sgen++
	get()
	if s := c.Stats(); calls != 2 || s.Size != 1 || s.SourceRetirements != 0 {
		t.Fatalf("after a statistics move: %d compiles, stats %+v", calls, s)
	}
	stamp++
	get()
	if s := c.Stats(); calls != 3 || s.Size != 1 || s.SourceRetirements != 1 {
		t.Fatalf("after a metadata move: %d compiles, stats %+v", calls, s)
	}
}
