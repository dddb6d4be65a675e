package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The benchmark prints exactly the metrics BENCHMARK.json declares, with
// the declared units: the end-to-end set untraced, the per-layer set traced.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	outs := make([]callOutcome, 400)
	for i := range outs {
		outs[i].setup = 10e6
		outs[i].callerRecv.MOS = 4.4
	}
	m := &measured{
		w: &world{}, outcomes: outs, setupS: []float64{1}, seconds: 40,
		cpuShare: normalise(nil), allocShare: normalise(nil),
	}
	// The fixture has no nodes and no spans, so per-node and per-span
	// figures come out NaN: set refuses them and names them in a problem.
	compare := func(mode string, want []decl, res *result) {
		got := res.metrics
		for _, d := range want {
			g, ok := got[d.Name]
			if !ok {
				if !hasProblem(res.problems, "metric "+d.Name+" has no finite value") {
					t.Errorf("%s: %s is declared but not printed", mode, d.Name)
				}
			} else if g.Unit != d.Unit {
				t.Errorf("%s: %s printed in %q, declared in %q", mode, d.Name, g.Unit, d.Unit)
			}
			delete(got, d.Name)
		}
		for n := range got {
			t.Errorf("%s: %s is printed but not declared", mode, n)
		}
	}
	res := newResult()
	endToEnd(res, m)
	if !res.correct {
		t.Fatalf("--trace 0 on a clean fixture: %v", res.problems)
	}
	compare("--trace 0", spec.EndToEnd, res)
	res = newResult()
	perLayer(res, m, nil, 0, nil)
	compare("--trace 1", spec.PerLayer, res)
}
