package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestChargeLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "siphoc/internal/wire.(*Writer).String", "siphoc/internal/slp.(*Agent).Outgoing"}, "slp"},
		{[]string{"siphoc/internal/routing/olsr.(*Protocol).onHello.func1", "siphoc/internal/netem.(*Host).dispatch"}, "olsr"},
		{[]string{"siphoc/internal/routing.AppendEnvelope", "siphoc/internal/routing/olsr.(*Protocol).sendTC"}, "olsr"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"sync.(*Mutex).Lock", "siphoc.(*Scenario).Metrics", "main.snapshot"}, "bench"},
	} {
		if got := chargeLayer(tc.stack); got != tc.want {
			t.Errorf("chargeLayer(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
	if p := funcPackage("siphoc/internal/netem.(*Network).send"); p != "siphoc/internal/netem" {
		t.Fatalf("funcPackage = %q", p)
	}
}

var sink float64

// spin burns CPU in the benchmark's own package for d. It sums into a
// local so that the loop touches no memory the race detector instruments.
func spin(d time.Duration) {
	var acc float64
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := range 10000 {
			acc += math.Sqrt(float64(i))
		}
	}
	sink = acc
}

func TestCPUSharesFromRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range shareLayers {
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("shares sum to %v, want 100", sum)
	}
	if shares["bench"] < 50 {
		t.Fatalf("a profile of the benchmark's own loop charges only %.1f%% to it: %v", shares["bench"], shares)
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded as a profile")
	}
}

func TestAllocShares(t *testing.T) {
	before := allocSnapshot()
	var keep [][]byte
	for range 2000 {
		keep = append(keep, make([]byte, 4096))
	}
	shares := allocShares(before, allocSnapshot())
	if len(keep) == 0 || shares["bench"] < 50 {
		t.Fatalf("allocations in the benchmark's own code charged %.1f%% to it: %v", shares["bench"], shares)
	}
}
