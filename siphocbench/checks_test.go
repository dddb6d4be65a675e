package main

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"siphoc"
	"siphoc/internal/rtp"
)

func TestG107Defaults(t *testing.T) {
	// G.107 with every parameter at its default rates a zero-delay,
	// loss-free connection at R = 93.2.
	if r := g107R(0, 0); math.Abs(r-93.2) > 0.2 {
		t.Fatalf("R(0 ms, 0%%) = %.3f, want 93.2", r)
	}
	if m := g107MOS(93.2); math.Abs(m-4.41) > 0.01 {
		t.Fatalf("MOS(93.2) = %.3f, want 4.41", m)
	}
	// The rating falls with delay and with loss.
	prev := g107R(0, 0)
	for _, d := range []float64{20, 50, 100, 150, 200, 300, 400} {
		r := g107R(d, 0)
		if r >= prev {
			t.Fatalf("R(%v ms) = %.3f does not fall below %.3f", d, r, prev)
		}
		prev = r
	}
	prev = g107R(20, 0)
	for _, l := range []float64{0.01, 0.02, 0.05, 0.1} {
		r := g107R(20, l)
		if r >= prev {
			t.Fatalf("R(20 ms, %v) = %.3f does not fall below %.3f", l, r, prev)
		}
		prev = r
	}
	// Ie-eff for G.711 with PLC at 2 %% random loss: 95·2/(2+25.1).
	if got, want := g107R(0, 0)-g107R(0, 0.02), 95*2/27.1; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Ie-eff at 2%% loss = %.4f, want %.4f", got, want)
	}
	if g107MOS(-5) != 1 || g107MOS(120) != 4.5 {
		t.Fatal("MOS not clamped to [1, 4.5]")
	}
}

// The E-model check rests on the program's estimate tracking G.107 over the
// delays and losses the workloads produce.
func TestProgramMOSTracksG107(t *testing.T) {
	for _, d := range []time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond, 150 * time.Millisecond, 250 * time.Millisecond} {
		for _, l := range []float64{0, 0.01, 0.05, 0.1} {
			_, mos := rtp.EModel(d, l)
			want := g107MOS(g107R(float64(d)/1e6, l))
			if math.Abs(mos-want) > mosTolerance {
				t.Errorf("%v, %.0f%%: program MOS %.3f, G.107 %.3f", d, 100*l, mos, want)
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, ok := tail(samples(199)); ok {
		t.Fatal("p95 reported on 199 samples: only 9 lie beyond it")
	}
	p95, ok := tail(samples(200))
	if !ok || p95 != 190 {
		t.Fatalf("p95 of 1..200 = %v (%v), want 190 with 10 beyond", p95, ok)
	}
	if n := beyond(200, tailQuantile); n != 10 {
		t.Fatalf("beyond(200) = %d, want 10", n)
	}
	if _, ok := tail(nil); ok {
		t.Fatal("p95 reported with no samples")
	}
	if q := quantile(samples(10), 0.5); q != 5 {
		t.Fatalf("nearest-rank median of 1..10 = %v, want 5", q)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5.5, 1.25, 9, 2, 7.75, 3.5}, [3]float64{1.8125, 4.5, 8.0625}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// tableFunc is a routing table backed by a function.
type tableFunc func(dst siphoc.NodeID) (siphoc.NodeID, bool)

func (f tableFunc) NextHop(dst siphoc.NodeID) (siphoc.NodeID, bool) { return f(dst) }

func TestRouteCheck(t *testing.T) {
	const rows, cols = 3, 4
	var grid []gridNode
	id := func(r, c int) siphoc.NodeID { return siphoc.NodeID(string(rune('a'+r)) + string(rune('0'+c))) }
	at := map[siphoc.NodeID]gridNode{}
	for r := range rows {
		for c := range cols {
			g := gridNode{id: id(r, c), row: r, col: c}
			grid = append(grid, g)
			at[g.id] = g
		}
	}
	// xyRoute moves along the row first, then the column: a shortest path.
	xyRoute := func(from siphoc.NodeID) tableFunc {
		return func(dst siphoc.NodeID) (siphoc.NodeID, bool) {
			a, b := at[from], at[dst]
			switch {
			case a.col < b.col:
				return id(a.row, a.col+1), true
			case a.col > b.col:
				return id(a.row, a.col-1), true
			case a.row < b.row:
				return id(a.row+1, a.col), true
			default:
				return id(a.row-1, a.col), true
			}
		}
	}
	run := func(tables func(siphoc.NodeID) (nextHopper, bool)) []string {
		_, probs := checkRoutes(grid, 80, 100, 200, rand.New(rand.NewSource(1)), tables)
		return probs
	}
	if probs := run(func(n siphoc.NodeID) (nextHopper, bool) { return xyRoute(n), true }); len(probs) != 0 {
		t.Fatalf("shortest routes flagged: %v", probs)
	}
	// A diagonal hop is as short in hops but spans 113 m.
	diagonal := func(n siphoc.NodeID) (nextHopper, bool) {
		return tableFunc(func(dst siphoc.NodeID) (siphoc.NodeID, bool) {
			a, b := at[n], at[dst]
			if a.row != b.row && a.col != b.col {
				dr, dc := sign(b.row-a.row), sign(b.col-a.col)
				return id(a.row+dr, a.col+dc), true
			}
			return xyRoute(n)(dst)
		}), true
	}
	if !hasProblem(run(diagonal), "radio range") {
		t.Fatal("hop beyond radio range not flagged")
	}
	// A detour through the far column is longer than Manhattan.
	detour := func(n siphoc.NodeID) (nextHopper, bool) {
		return tableFunc(func(dst siphoc.NodeID) (siphoc.NodeID, bool) {
			a, b := at[n], at[dst]
			if a.row != b.row && a.col < cols-1 && !(a.col == b.col) {
				return id(a.row, a.col+1), true
			}
			if a.row != b.row {
				return id(a.row+sign(b.row-a.row), a.col), true
			}
			return xyRoute(n)(dst)
		}), true
	}
	if !hasProblem(run(detour), "Manhattan") {
		t.Fatal("route longer than the Manhattan distance not flagged")
	}
	missing := func(n siphoc.NodeID) (nextHopper, bool) {
		return tableFunc(func(siphoc.NodeID) (siphoc.NodeID, bool) { return "", false }), true
	}
	if !hasProblem(run(missing), "no next hop") {
		t.Fatal("missing route not flagged")
	}
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

func hasProblem(probs []string, sub string) bool {
	for _, p := range probs {
		if strings.Contains(p, sub) {
			return true
		}
	}
	return false
}

func TestCallChecks(t *testing.T) {
	_, mos := rtp.EModel(10*time.Millisecond, 0)
	good := siphoc.MediaStats{Expected: 25, Received: 25, AvgDelay: 10 * time.Millisecond, MOS: mos}
	ok := callOutcome{
		plan: callPlan{caller: 0, callee: 3}, callID: "c1", rang: []int{3},
		callerSent: 25, calleeSent: 25, callerRecv: good, calleeRecv: good,
	}
	if probs := checkCalls([]callOutcome{ok}, 25); len(probs) != 0 {
		t.Fatalf("a clean call was flagged: %v", probs)
	}

	for name, tc := range map[string]struct {
		mutate func(*callOutcome)
		want   string
	}{
		"wrong phone":   {func(o *callOutcome) { o.rang = []int{2} }, "rang phones"},
		"two phones":    {func(o *callOutcome) { o.rang = []int{3, 5} }, "rang phones"},
		"never rang":    {func(o *callOutcome) { o.rang = nil }, "rang phones"},
		"lost frame":    {func(o *callOutcome) { o.calleeRecv.Received = 24 }, "lost voice"},
		"short stream":  {func(o *callOutcome) { o.callerSent = 20 }, "sent 20/25"},
		"MOS off G.107": {func(o *callOutcome) { o.callerRecv.MOS = 3.9 }, "G.107 gives"},
		"no media":      {func(o *callOutcome) { o.callerRecv = siphoc.MediaStats{} }, "no media"},
	} {
		o := ok
		tc.mutate(&o)
		if probs := checkCalls([]callOutcome{o}, 25); !hasProblem(probs, tc.want) {
			t.Errorf("%s: problems %v, want one mentioning %q", name, probs, tc.want)
		}
	}
	failed := ok
	failed.err = errors.New("404")
	failed.rang = nil
	if probs := checkCalls([]callOutcome{failed}, 25); len(probs) != 0 {
		t.Fatalf("a failed call's outputs were checked: %v", probs)
	}
}

func TestTrunkCheck(t *testing.T) {
	if p := checkTrunk(counters{trunkBatched: 10, trunkDelivered: 10}); p != nil {
		t.Fatalf("conserved trunk flagged: %v", p)
	}
	if p := checkTrunk(counters{trunkBatched: 10, trunkDelivered: 9}); p == nil {
		t.Fatal("undelivered trunk payload not flagged")
	}
	if p := checkTrunk(counters{}); p == nil {
		t.Fatal("idle trunk not flagged")
	}
}

func TestPlanCallsWholeRounds(t *testing.T) {
	pairs := pairsWhere(4, func(a, b int) bool { return a != b })
	if len(pairs) != 12 {
		t.Fatalf("%d ordered pairs of 4 phones, want 12", len(pairs))
	}
	var orders [][]callPlan
	for seed := int64(1); seed <= 2; seed++ {
		plans := planCalls(rand.New(rand.NewSource(seed)), pairs, 2, 30)
		if len(plans) != 60 {
			t.Fatalf("seed %d: %d calls, want 5 whole rounds of 12", seed, len(plans))
		}
		count := map[[2]int]int{}
		for i, p := range plans {
			count[[2]int{p.caller, p.callee}]++
			if slot := time.Duration(i) * 500 * time.Millisecond; p.due < slot || p.due >= slot+500*time.Millisecond {
				t.Fatalf("call %d due at %v, outside its slot from %v", i, p.due, slot)
			}
		}
		for _, pr := range pairs {
			if count[pr] != 5 {
				t.Fatalf("seed %d: pair %v called %d times, want 5", seed, pr, count[pr])
			}
		}
		orders = append(orders, plans)
	}
	same := true
	for i := range orders[0] {
		if orders[0][i] != orders[1][i] {
			same = false
		}
	}
	if same {
		t.Fatal("two seeds gave the same call order")
	}
	if n := len(planCalls(rand.New(rand.NewSource(1)), pairs, 0.01, 1)); n != 12 {
		t.Fatalf("a short phase got %d calls, want one whole round", n)
	}
}
