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
// metadata, statistics and source generations it was stamped under hold,
// also from a disabled cache, which stores nothing but stamps alike.
func TestFreshFollowsStamps(t *testing.T) {
	var gens [3]uint64 // metadata, statistics, the one source
	names := [3]string{"metadata", "statistics", "source"}
	for _, maxEntries := range []int{0, -1} {
		c := New(Config{
			MaxEntries:       maxEntries,
			Generation:       func() uint64 { return gens[0] },
			StatsGeneration:  func() uint64 { return gens[1] },
			SourceGeneration: func(string) uint64 { return gens[2] },
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
