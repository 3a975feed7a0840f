package catalog

import (
	"fmt"
	"sync"
	"testing"
)

// TestCacheConcurrentLookups hammers one Cache from many goroutines —
// mixed hits, misses, negative entries, stats reads, and invalidations —
// so `go test -race` can prove the shared map and counters are guarded.
func TestCacheConcurrentLookups(t *testing.T) {
	cache := NewCache(Demo())
	refs := []TableRef{
		{Table: "CUSTOMERS"},
		{Table: "PAYMENTS"},
		{Table: "PO_CUSTOMERS"},
		{Table: "PO_ITEMS"},
		{Schema: "TestDataServices/CUSTOMERS", Table: "CUSTOMERS"},
		{Table: "NO_SUCH_TABLE"}, // negative entry
	}

	const goroutines = 16
	const iters = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ref := refs[(g+i)%len(refs)]
				meta, err := cache.Lookup(ref)
				if ref.Table == "NO_SUCH_TABLE" {
					if err == nil {
						t.Errorf("lookup %v: expected error", ref)
						return
					}
				} else if err != nil || meta == nil {
					t.Errorf("lookup %v: %v", ref, err)
					return
				}
				if i%37 == 0 {
					_ = cache.Stats()
				}
				if g == 0 && i%101 == 0 {
					cache.Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()

	stats := cache.Stats()
	// A lookup that joins another goroutine's in-flight fetch (after an
	// Invalidate) is counted as Shared, neither hit nor miss.
	if got := stats.Hits + stats.Misses + stats.Shared; got != goroutines*iters {
		t.Fatalf("hits+misses+shared = %d, want %d", got, goroutines*iters)
	}
	if stats.Misses == 0 || stats.Hits == 0 {
		t.Fatalf("degenerate stats: %+v", stats)
	}
}

// TestCacheConcurrentOverRemote layers the cache over a Remote (which
// keeps its own guarded call counter) and checks both stay consistent
// under parallel load.
func TestCacheConcurrentOverRemote(t *testing.T) {
	remote := &Remote{Inner: Demo()}
	cache := NewCache(remote)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := cache.Lookup(TableRef{Table: "CUSTOMERS"}); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	stats := cache.Stats()
	// A lookup that joins another goroutine's in-flight fetch of the cold
	// key is counted as Shared, neither hit nor miss.
	if got := stats.Hits + stats.Misses + stats.Shared; got != 8*200 {
		t.Fatalf("hits+misses+shared = %d, want %d", got, 8*200)
	}
	// Every remote round trip corresponds to a recorded miss (the waiters
	// that shared a fetch made no call of their own).
	if remote.Calls() != stats.Misses {
		t.Fatalf("remote calls = %d, cache misses = %d", remote.Calls(), stats.Misses)
	}
}

// TestCacheStressManyKeys creates contention on distinct keys so map
// growth happens under concurrent access.
func TestCacheStressManyKeys(t *testing.T) {
	app := &Application{Name: "Stress"}
	var cols = []Column{{Name: "C0", Type: SQLInteger}}
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("T%d", i)
		app.AddDSFile(&DSFile{
			Path:      "Stress",
			Name:      name,
			Functions: []*Function{NewRelationalImport("Stress", name, cols)},
		})
	}
	cache := NewCache(app)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				ref := TableRef{Table: fmt.Sprintf("T%d", (i+g*7)%64)}
				if _, err := cache.Lookup(ref); err != nil {
					t.Errorf("lookup %v: %v", ref, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
