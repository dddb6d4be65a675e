package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadyMain runs one workload N times, each in its own process with its
// own seed, and prints for each metric the median, the quartiles and the
// spread (interquartile range as a share of the median) — the figures that
// decide whether a metric repeats well enough to be gated.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("siphocbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	seed0 := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 40, "measured seconds per run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := workloadByName(*name); err != nil || *runs < 2 {
		fmt.Fprintln(os.Stderr, "steady: need --workload <name> and --runs >= 2:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []string
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "steady: run %d (seed %d): %v\n", i, seed, err)
			return 1
		}
		var res struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			fmt.Fprintf(os.Stderr, "steady: run %d: bad result line: %v\n", i, err)
			return 1
		}
		fmt.Printf("run %d seed %d: correct=%v attempted=%d failed=%d\n", i, seed, res.Correct, res.Attempted, res.Failed)
		failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %6s %12s %12s %12s %8s  %s\n", "metric", "n", "q1", "median", "q3", "spread", "unit")
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-34s %6d %12.4f %12.4f %12.4f %7.1f%%  %s\n", k, len(values[k]), q1, q2, q3, 100*spread, units[k])
	}
	fmt.Println("values per run:")
	for _, k := range names {
		fmt.Printf("  %-32s %v\n", k, values[k])
	}
	fmt.Printf("failed/attempted per run: %v\n", failShares)
	return 0
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
