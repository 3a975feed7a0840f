package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
)

const (
	smokeScale   = 0.01
	smokeSeconds = 0.05
)

func names(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

func emitted(m map[string]value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload at 1/100 scale, on two seeds: no operation fails its
// answer check and exactly the declared end-to-end metrics come out.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloadSpecs {
		for seed := uint64(1); seed <= 2; seed++ {
			rep, err := measure(w.Name, seed, smokeSeconds, smokeScale)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			if rep.Attempted == 0 || rep.Failed != 0 || !rep.Correct {
				t.Errorf("%s seed %d: %d attempted, %d failed", w.Name, seed, rep.Attempted, rep.Failed)
			}
			if got, want := emitted(rep.Metrics), names(endToEnd); !slices.Equal(got, want) {
				t.Errorf("%s: emitted %v, declared %v", w.Name, got, want)
			}
			for k, v := range rep.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, k, v.Value)
				}
			}
		}
	}
}

// The traced pass: exactly the declared per-layer metrics, well-formed
// spans, and on the in-process workloads at most a tenth of the op time
// outside every layer's spans.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloadSpecs {
		tc := newTracer()
		t.Cleanup(tc.release)
		tr, err := perLayerMetrics(w.Name, 3, 6*smokeSeconds, smokeScale, tc)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if tr.failed != 0 {
			t.Errorf("%s: %d of %d traced operations failed", w.Name, tr.failed, tr.attempted)
		}
		if got, want := emitted(tr.metrics), names(perLayer); !slices.Equal(got, want) {
			t.Errorf("%s: emitted %v, declared %v", w.Name, got, want)
		}
		if u := tr.metrics["trace.unattributed_ratio"].Value; tr.callers == 1 && u > 0.10 {
			t.Errorf("%s: %.1f%% of traced op time is in no layer's span", w.Name, 100*u)
		}
		if tr.metrics["trace.overhead_ratio"].Value <= 0 {
			t.Errorf("%s: no tracing overhead reported", w.Name)
		}

		byID := map[int32]span{}
		roots := 0
		for _, s := range tc.spans() {
			byID[s.ID] = s
		}
		for _, s := range tc.spans() {
			if s.End < s.Start || s.Busy < 0 || s.Busy > s.End-s.Start || s.Calls < 1 {
				t.Fatalf("%s: malformed span %+v", w.Name, s)
			}
			if tc.name(s) == "bench.op" {
				roots++
			}
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok || p.Op != s.Op || s.Start < p.Start || s.End > p.End {
				t.Fatalf("%s: span %+v does not sit inside its parent %+v", w.Name, s, p)
			}
		}
		if roots != tr.traced.ops {
			t.Errorf("%s: %d root spans for %d traced ops", w.Name, roots, tr.traced.ops)
		}
	}
}

// BENCHMARK.json is generated from spec.go and obeys the driver's limits.
func TestRegistration(t *testing.T) {
	file, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `aqlbench -spec`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if !unit.MatchString(m.Unit) || m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bad unit or bound", m.Name)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != nil {
			t.Errorf("%s: bad unit, or a per-layer metric with a bound", m.Name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}
