// Command aqlbench is the repository's benchmark: five seeded,
// answer-checked, closed-loop workloads over the platform's public
// surfaces, eight end-to-end metrics measured with tracing off, and a
// separate traced pass that records spans from outside the product round
// calls into each layer's public functions. See ../README.md.
//
// Driver protocol (BENCHMARK.json):
//
//	aqlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints a stamped JSON document and, as the last line of stdout, one
// object {correct, attempted, failed, metrics}. Without --workload every
// workload runs, untraced and traced, each pass in a process of its own,
// into one document. -aa runs the
// driver's own acceptance check: two sets of separate-process runs
// compared against the bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// setupRepeats is how many times a run builds its workload; setup_s is
// the median and the last build is the one measured.
const setupRepeats = 7

// fullScale is the only data size the command runs at; the smoke test
// passes a smaller one to measure and perLayerMetrics directly.
const fullScale = 1

// report is one workload's section of the stamped document.
type report struct {
	Name      string           `json:"name"`
	Why       string           `json:"why"`
	Callers   int              `json:"callers"`
	Traced    bool             `json:"traced"`
	Ops       int              `json:"ops"`
	WallS     float64          `json:"wall_s"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"` // errors + refusals + answer mismatches
	ErrShare  float64          `json:"error_share"`
	Correct   bool             `json:"correct"`
	Metrics   map[string]value `json:"metrics"`
}

// document is the stamped output of one invocation.
type document struct {
	Benchmark  string   `json:"benchmark"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GoMaxProcs int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Seed       uint64   `json:"seed"`
	StartTime  string   `json:"start_time"`
	Seconds    float64  `json:"seconds"`
	Workloads  []report `json:"workloads"`
}

func commit() string {
	rev, dirty := "unknown", "" // a driver checkout is not a git repository
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func why(name string) string {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

// measure runs one workload untraced: setupRepeats builds (the median is
// setup_s), then the closed loop for the given time.
func measure(name string, seed uint64, seconds, scale float64) (report, error) {
	var setups []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(name, seed, scale, nil); err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	ph := runPhase(e, time.Duration(seconds*float64(time.Second)), false)
	return report{Name: name, Why: why(name), Callers: e.callers, Ops: ph.ops, WallS: ph.wall.Seconds(),
		Attempted: ph.ops, Failed: ph.failed, ErrShare: ratio(float64(ph.failed), float64(ph.ops)), Correct: ph.failed == 0, Metrics: endToEndMetrics(ph, setups)}, nil
}

// trace runs one workload's traced pass and optionally dumps its spans.
func trace(name string, seed uint64, seconds, scale float64, spans string) (report, error) {
	t := newTracer()
	defer t.release()
	tr, err := perLayerMetrics(name, seed, seconds, scale, t)
	if err != nil {
		return report{}, err
	}
	if spans != "" {
		f, err := os.Create(spans)
		if err != nil {
			return report{}, err
		}
		if err := t.dump(f); err != nil {
			f.Close()
			return report{}, err
		}
		if err := f.Close(); err != nil {
			return report{}, err
		}
	}
	return report{Name: name, Why: why(name), Callers: tr.callers, Traced: true, Ops: tr.traced.ops,
		WallS: tr.traced.wall.Seconds(), Attempted: tr.attempted, Failed: tr.failed,
		ErrShare: ratio(float64(tr.failed), float64(tr.attempted)), Correct: tr.failed == 0, Metrics: tr.metrics}, nil
}

// child runs one pass of one workload in a process of its own, as the
// driver does, and returns its section of the document. A pass that
// follows another in one process inherits its heap and the collector's
// pacing — served_point's p90 read 0.92 ms after three other workloads
// and 1.18 ms alone — so only separate processes give comparable numbers.
func child(name string, seed uint64, seconds float64, traced bool) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	pass := "0"
	if traced {
		pass = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", pass)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	var doc document // comes first on the child's stdout; the driver's result line follows
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(&doc); err != nil || len(doc.Workloads) != 1 {
		return report{}, fmt.Errorf("%s seed %d: no document on stdout (%v)", name, seed, err)
	}
	return doc.Workloads[0], nil
}

func main() {
	workload := flag.String("workload", "", "run one workload in driver mode (default: all, untraced then traced, a process each)")
	seed := flag.Uint64("seed", 1, "input seed: same seed, same tables, statements and parameters")
	seconds := flag.Float64("seconds", runSeconds, "measured time per pass")
	traceFlag := flag.Int("trace", 0, "driver mode: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced pass")
	out := flag.String("out", "", "also write the stamped document to this file")
	spans := flag.String("spans", "", "with -workload and -trace 1: write the spans to this file as JSON")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	aa := flag.Bool("aa", false, "self-check: two sets of -runs separate-process runs per workload, compared against the bounds")
	runs := flag.Int("runs", 10, "with -aa: runs per set, each with its own seed")
	flag.Parse()

	if *spec {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if *aa {
		if !selfCheck(*seed, *runs, *seconds) {
			os.Exit(1)
		}
		return
	}

	doc := document{Benchmark: "aqlbench", Commit: commit(), GoVersion: runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Seed: *seed,
		StartTime: time.Now().UTC().Format(time.RFC3339), Seconds: *seconds}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "aqlbench:", err)
		os.Exit(1)
	}
	switch {
	case *workload != "" && *traceFlag == 1:
		rep, err := trace(*workload, *seed, *seconds, fullScale, *spans)
		if err != nil {
			fail(err)
		}
		doc.Workloads = []report{rep}
	case *workload != "":
		rep, err := measure(*workload, *seed, *seconds, fullScale)
		if err != nil {
			fail(err)
		}
		doc.Workloads = []report{rep}
	default: // every workload, untraced then traced
		for _, w := range workloadSpecs {
			for _, traced := range []bool{false, true} {
				rep, err := child(w.Name, *seed, *seconds, traced)
				if err != nil {
					fail(err)
				}
				doc.Workloads = append(doc.Workloads, rep)
			}
		}
	}
	text, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fail(err)
	}
	fmt.Println(string(text))
	if *out != "" {
		if err := os.WriteFile(*out, append(text, '\n'), 0o644); err != nil {
			fail(err)
		}
	}
	if *workload != "" {
		fmt.Println(resultLine(doc.Workloads[0]))
	}
}

// resultLine is the driver's contract: exactly correct, attempted, failed
// and metrics, each metric exactly value and unit.
func resultLine(r report) string {
	type bare struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]bare `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]bare{}}
	for k, v := range r.Metrics {
		line.Metrics[k] = bare{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	return string(b)
}
