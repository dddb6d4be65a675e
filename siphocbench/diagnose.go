package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"siphoc"
	"siphoc/internal/obs"
	"siphoc/internal/routing/olsr"
)

// diagnostics is what the manet-calls traced run measures beyond the
// workload itself, in two passes made after it:
//
//   - the AODV variant: the same MANET, phones and calls, routed with AODV
//     and with every node's Connection Provider on. It is the layer the
//     aodv.* metrics measure. Its calls are not operations of the
//     benchmark: on this program they fail or lose voice now and then (see
//     README.md), so the pass counts those calls instead of gating on them,
//     and every other check still applies to it;
//   - the event-loop grid: a 20×20 OLSR grid on the sharded scheduler with
//     no phones, which no call workload runs. It gives clock.pending_tasks.
type diagnostics struct {
	aodv     aodvFigures
	grid     gridFigures
	notes    []string
	problems []string
}

type aodvFigures struct {
	calls          int     // calls placed
	established    int     // calls confirmed
	failedCalls    int     // calls that never got confirmed or torn down
	lostVoiceCalls int     // confirmed calls that lost voice on a loss-free medium
	discoveries    int64   // route discoveries completed
	rreqs          int64   // RREQs sent or forwarded
	ttlExpired     int64   // datagrams dropped on hop-limit exhaustion
	discoveryP50Ms float64 // median discovery delay; NaN without discoveries
}

type gridFigures struct {
	convergenceS float64 // bring-up until corner-to-corner routes both ways
	pendingTasks float64 // median clock.Scheduler queue depth in the window
}

const (
	gridSide   = 20
	gridWindow = 5 * time.Second
	gridSample = 100 * time.Millisecond
	// aodvDelay is the program's histogram of route discovery delays.
	aodvDelay = "aodv.discovery.delay"
)

// manetAODVVariant is the MANET as the paper runs it: AODV, and every node
// with its Connection Provider.
func manetAODVVariant() manetVariant {
	return manetVariant{scenario: []siphoc.ScenarioOption{siphoc.WithRoutingKind(siphoc.RoutingAODV)}}
}

// gridOLSR is the event-loop grid's fixed OLSR timing: HELLO 1 s, TC 2.5 s,
// TTL 64 for the 38-hop diameter, fisheye with near TTL 8 and a full flood
// every 4th round.
func gridOLSR() olsr.Config {
	return olsr.Config{
		HelloInterval:   time.Second,
		TCInterval:      2500 * time.Millisecond,
		MaxTTL:          64,
		RouteWait:       2 * time.Minute,
		Fisheye:         true,
		FisheyeNearTTL:  8,
		FisheyeFarEvery: 4,
	}
}

func manetDiagnostics(seed int64) (*diagnostics, error) {
	d := &diagnostics{}
	if err := aodvPass(d, seed); err != nil {
		return nil, err
	}
	if err := gridPass(d); err != nil {
		return nil, err
	}
	return d, nil
}

// aodvPass places one round of every phone pair on the AODV variant, at
// the workload's rate and in an order drawn from the seed.
func aodvPass(d *diagnostics, seed int64) error {
	w, err := buildManet(true, nil, manetAODVVariant())
	if err != nil {
		return fmt.Errorf("aodv variant: %w", err)
	}
	defer w.close()
	pairs := manetPairs(len(w.phones))
	seconds := int(math.Ceil(float64(len(pairs)) / manetRate))
	plans := planCalls(rand.New(rand.NewSource(seed+3)), pairs, manetRate, seconds)

	obsv := w.scenarios[0].Observer()
	h0 := obsv.Snapshot().Histograms[aodvDelay]
	before := snapshot(w)
	driver := newCallDriver(w, manetFrames, nil)
	outs := driver.run(plans)
	delta := snapshot(w).sub(before)
	h1 := obsv.Snapshot().Histograms[aodvDelay]
	driver.close()

	a := &d.aodv
	a.calls = len(outs)
	a.discoveries, a.rreqs, a.ttlExpired = delta.aodvDiscovered, delta.aodvRREQ, delta.ttlExpired
	a.discoveryP50Ms = math.NaN()
	if h := histDelta(h0, h1); h.Count > 0 {
		a.discoveryP50Ms = float64(h.Quantile(0.5)) / 1e6
	}
	for _, o := range outs {
		if o.err != nil {
			a.failedCalls++
			d.notes = append(d.notes, fmt.Sprintf("aodv variant: failed call %s (%d→%d): %v", o.callID, o.plan.caller, o.plan.callee, o.err))
			continue
		}
		a.established++
		if lost := frameConservation(o, manetFrames); len(lost) > 0 {
			a.lostVoiceCalls++
			for _, l := range lost {
				d.notes = append(d.notes, "aodv variant: "+l)
			}
		}
		for _, p := range identityAndMOS(o) {
			d.problems = append(d.problems, "aodv variant: "+p)
		}
	}
	return nil
}

// histDelta returns the samples b holds beyond a, where b is a later
// snapshot of the same histogram.
func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	prev := make(map[time.Duration]int64, len(a.Buckets))
	for _, bk := range a.Buckets {
		prev[bk.LE] = bk.Count
	}
	out := obs.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for _, bk := range b.Buckets {
		out.Buckets = append(out.Buckets, obs.BucketCount{LE: bk.LE, Count: bk.Count - prev[bk.LE]})
	}
	return out
}

// gridPass brings up the event-loop grid, waits for corner-to-corner
// routes both ways, then samples the scheduler's queue through a fixed
// window.
func gridPass(d *diagnostics) error {
	cfg := gridOLSR()
	sc, err := siphoc.NewScenarioWith(
		siphoc.WithOLSR(&cfg),
		siphoc.WithSLPMode(siphoc.SLPPiggyback),
		siphoc.WithEventLoop(),
		siphoc.WithoutObservability(),
	)
	if err != nil {
		return fmt.Errorf("event-loop grid: %w", err)
	}
	defer sc.Close()
	t0 := time.Now()
	nodes, err := sc.Grid(gridSide, gridSide, manetSpacing, siphoc.WithoutConnectionProvider())
	if err != nil {
		return fmt.Errorf("event-loop grid: %w", err)
	}
	first, last := nodes[0], nodes[len(nodes)-1]
	for {
		_, ab := first.Routing().NextHop(last.ID())
		_, ba := last.Routing().NextHop(first.ID())
		if ab && ba {
			break
		}
		if time.Since(t0) > time.Minute {
			return fmt.Errorf("event-loop grid: no corner-to-corner route after %v", time.Since(t0))
		}
		time.Sleep(50 * time.Millisecond)
	}
	d.grid.convergenceS = time.Since(t0).Seconds()
	var pending []float64
	for end := time.Now().Add(gridWindow); time.Now().Before(end); time.Sleep(gridSample) {
		pending = append(pending, float64(sc.Scheduler().Pending()))
	}
	d.grid.pendingTasks = median(pending)
	return nil
}
