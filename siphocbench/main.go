// Command siphocbench is the end-to-end benchmark of siphoc. It drives the
// public siphoc API from outside the program through one of two workloads,
// checks the program's outputs against computations of its own, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	siphocbench --workload manet-calls --seed 1 --seconds 40 --trace 0
//	siphocbench steady --workload federation-calls --runs 10 --seconds 40
//
// With --trace 0 the metrics are the end-to-end ones, measured with the
// program's observability off. With --trace 1 the run measures the same
// workload twice — once untraced, once with observability, spans and a CPU
// and allocation profile — and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("siphocbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: manet-calls or federation-calls")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 40, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	wl, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "siphocbench: need --workload <name> --seconds >= 1 --trace 0|1:", err)
		os.Exit(2)
	}
	// One process per workload; the Go scheduler may use every CPU the
	// host has and no more.
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := runWorkload(wl, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "siphocbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "siphocbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	correct   bool
	problems  []string // why correct is false
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string // human-readable lines printed before the JSON
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]metric{}}
}

// set records one metric. A value that is not a finite number means the
// run measured nothing for it, which makes the run incorrect.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s has no finite value", name)
		return
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// absent reports a per-layer metric the workload does not exercise: it is
// printed as 0 so every traced run has the same keys, and the reason is
// printed with it.
func (r *result) absent(name, unit, why string) {
	r.set(name, 0, unit)
	r.notef("absent %s: %s", name, why)
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) print(w *os.File) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "# INCORRECT:", p)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-34s %14.6f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
