package qcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sqlparser"
	"repro/internal/translator"
)

// TestStampedeSingleFlight is the cache-stampede contract under -race: any
// number of goroutines racing a cold key trigger exactly one compile, and
// everyone gets the same artifact.
func TestStampedeSingleFlight(t *testing.T) {
	c := New(Config{})
	var compiles atomic.Int64
	slow := func(ctx context.Context, sql string) (*CompiledQuery, error) {
		compiles.Add(1)
		time.Sleep(5 * time.Millisecond) // hold the flight open so everyone piles on
		return &CompiledQuery{SQL: sql}, nil
	}

	const goroutines = 32
	start := make(chan struct{})
	results := make([]*CompiledQuery, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			cq, _, err := c.Get(context.Background(), sqlparser.Front{}, "SELECT A FROM T", translator.ModeText, slow)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = cq
		}(g)
	}
	close(start)
	wg.Wait()

	if n := compiles.Load(); n != 1 {
		t.Fatalf("stampede compiled %d times, want 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d got a different artifact", g)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Shared != goroutines-1 {
		t.Fatalf("hits=%d shared=%d, want %d reuses total", s.Hits, s.Shared, goroutines-1)
	}
}

// TestEvictionChurn hammers a cache far smaller than its key space from
// many goroutines: LRU bookkeeping must stay consistent (size within
// bounds, no lost entries panicking the list) under constant eviction.
func TestEvictionChurn(t *testing.T) {
	const maxEntries = 4
	c := New(Config{MaxEntries: maxEntries})
	compile := func(ctx context.Context, sql string) (*CompiledQuery, error) {
		return &CompiledQuery{SQL: sql}, nil
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sql := fmt.Sprintf("SELECT C%d FROM T", (g*7+i)%16)
				if _, _, err := c.Get(context.Background(), sqlparser.Front{}, sql, translator.ModeText, compile); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	s := c.Stats()
	if s.Size > maxEntries {
		t.Fatalf("size %d exceeds bound %d", s.Size, maxEntries)
	}
	if s.Evictions == 0 {
		t.Fatal("churn over 16 keys with 4 slots produced no evictions")
	}
	if s.Misses+s.Hits+s.Shared != 8*200 {
		t.Fatalf("lookup accounting off: %+v", s)
	}
}

// TestInvalidationDuringChurn interleaves Invalidate with concurrent
// lookups: no artifact compiled against a pre-flush epoch may be served
// after the flush settles, and the cache must stay internally consistent.
func TestInvalidationDuringChurn(t *testing.T) {
	var gen atomic.Uint64
	c := New(Config{Generation: gen.Load})
	compile := func(ctx context.Context, sql string) (*CompiledQuery, error) {
		return &CompiledQuery{SQL: sql}, nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sql := fmt.Sprintf("SELECT C%d FROM T", i%8)
				cq, _, err := c.Get(context.Background(), sqlparser.Front{}, sql, translator.ModeText, compile)
				if err != nil {
					t.Error(err)
					return
				}
				if cq.SQL != sql {
					t.Errorf("got artifact for %q, want %q", cq.SQL, sql)
					return
				}
			}
		}(g)
	}
	// The invalidator plays the catalog refresher: bump the generation and
	// flush, repeatedly, mid-churn.
	for i := 0; i < 50; i++ {
		gen.Add(1)
		c.Invalidate()
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	s := c.Stats()
	if s.Invalidations != 50 {
		t.Fatalf("invalidations = %d", s.Invalidations)
	}
	if s.Generation != gen.Load() {
		t.Fatalf("generation = %d, want %d", s.Generation, gen.Load())
	}
}

// TestConcurrentStatsAndGet pins that Stats() can be scraped while the
// cache is being populated and flushed (the aqlshell \q path).
func TestConcurrentStatsAndGet(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	var compiles atomic.Int64
	compile := func(ctx context.Context, sql string) (*CompiledQuery, error) {
		compiles.Add(1)
		return &CompiledQuery{SQL: sql}, nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch i % 3 {
				case 0:
					sql := fmt.Sprintf("SELECT C%d FROM T", i%12)
					if _, _, err := c.Get(context.Background(), sqlparser.Front{}, sql, translator.ModeText, compile); err != nil {
						t.Error(err)
						return
					}
				case 1:
					_ = c.Stats()
				case 2:
					cq, _, err := c.Get(context.Background(), sqlparser.Front{}, "SELECT C0 FROM T", translator.ModeText, compile)
					if err != nil || cq.SQL != "SELECT C0 FROM T" {
						t.Errorf("lookup of SELECT C0: %v, %v", cq, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Misses != compiles.Load() || s.Hits+s.Misses+s.Shared != 4*200 {
		t.Fatalf("4×200 lookups counted as %d hits, %d misses, %d shared; %d compiles ran", s.Hits, s.Misses, s.Shared, compiles.Load())
	}
}
