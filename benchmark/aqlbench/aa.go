package main

import (
	"fmt"
	"os"
	"sort"
)

// selfCheck is the A/A test, run the way the driver runs the benchmark:
// two sets of `runs` separate processes per workload (seeds seed…
// seed+runs−1 in both sets). Per workload × end-to-end metric it prints
// both medians, each set's spread (interquartile range over median, the
// quartiles as Python's statistics.quantiles(n=4) gives them) and how much
// worse the second median is. A metric whose spread exceeds its bound is
// UNRESOLVED — the benchmark cannot see a regression of that size — not
// silently passed; a second median worse than the first by more than the
// bound is a FAIL.
func selfCheck(seed uint64, runs int, seconds float64) bool {
	ok := true
	fmt.Printf("%-17s %-22s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "worse", "bound", "verdict")
	for _, w := range workloadSpecs {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				rep, err := child(w.Name, seed+uint64(i), seconds, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "aqlbench:", err)
					return false
				}
				if !rep.Correct || rep.Failed != 0 {
					fmt.Printf("%-17s seed %d: %d failed operations\n", w.Name, seed+uint64(i), rep.Failed)
					ok = false
				}
				for k, v := range rep.Metrics {
					sets[s][k] = append(sets[s][k], v.Value)
				}
			}
		}
		for _, m := range endToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(a), spread(b)
			verdict := "PASS"
			switch {
			case m.Name != "setup_s" && (sa > *m.Bound || sb > *m.Bound):
				verdict, ok = "UNRESOLVED", false
			case worse > *m.Bound:
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-17s %-22s %12.4f %12.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100**m.Bound, verdict)
		}
	}
	return ok
}

// spread is (Q3 − Q1) / median with exclusive-method quartiles; 0 when
// there are too few values to have quartiles.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}
