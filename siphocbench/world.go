package main

import (
	"siphoc"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/routing/olsr"
)

// world is one workload's deployment after its readiness barrier passed.
type world struct {
	clk        clockLike
	scenarios  []*siphoc.Scenario // the MANET(s): one, or one per island
	fed        *siphoc.FederationScenario
	phones     []*siphoc.Phone
	phoneNodes []*siphoc.Node
	grids      []routeGrid // the MANETs, laid out for the route check
	close      func()

	// Set-up figures for the per-layer report.
	slpConvergenceS float64   // registrations done → every AOR resolvable
	poolBindMs      []float64 // REGISTER → binding visible at the pool
	attachMs        []float64 // each client's gateway attach
}

// nodes returns every MANET node of the world.
func (w *world) nodes() []*siphoc.Node {
	var out []*siphoc.Node
	for _, sc := range w.scenarios {
		out = append(out, sc.Nodes()...)
	}
	return out
}

// counters is a snapshot of the program's own activity counters, summed
// over every node; the difference of two snapshots is a phase's work.
type counters struct {
	frames, portDrops, noRoute, ttlExpired int64
	inetFrames                             int64

	olsrRecompute int64

	slpLookups, slpHits int64

	resLocal, resSLP, resInternet int64

	aodvDiscovered, aodvRREQ int64

	trunkFrames, trunkBatched, trunkDelivered int64
}

func snapshot(w *world) counters {
	var c counters
	for _, sc := range w.scenarios {
		st := sc.Network().Stats()
		c.frames += st.TotalFrames()
	}
	if w.fed != nil {
		c.inetFrames = w.fed.Internet().Network().Stats().TotalFrames()
		ts := w.fed.TrunkStats()
		c.trunkFrames, c.trunkBatched, c.trunkDelivered = ts.FramesSent, ts.PayloadsBatched, ts.PayloadsDelivered
	}
	for _, n := range w.nodes() {
		hs := n.Host().Stats()
		c.portDrops += hs.PortDrops
		c.noRoute += hs.NoRoute
		c.ttlExpired += hs.TTLExpired
		switch p := n.Routing().(type) {
		case *olsr.Protocol:
			c.olsrRecompute += p.Stats().Recompute
		case *aodv.Protocol:
			s := p.Stats()
			c.aodvDiscovered += s.Discovered
			c.aodvRREQ += s.RREQSent + s.RREQFwd
		}
		if a := n.SLP(); a != nil {
			s := a.Stats()
			c.slpLookups += s.Lookups
			c.slpHits += s.CacheHits
		}
		if px := n.Proxy(); px != nil {
			s := px.Stats()
			c.resLocal += s.LocalDeliveries
			c.resSLP += s.SLPResolutions
			c.resInternet += s.InternetRouted
		}
	}
	return c
}

func (a counters) sub(b counters) counters {
	return counters{
		frames:    a.frames - b.frames,
		portDrops: a.portDrops - b.portDrops, inetFrames: a.inetFrames - b.inetFrames,
		noRoute: a.noRoute - b.noRoute, ttlExpired: a.ttlExpired - b.ttlExpired,
		olsrRecompute: a.olsrRecompute - b.olsrRecompute,
		slpLookups:    a.slpLookups - b.slpLookups, slpHits: a.slpHits - b.slpHits,
		resLocal: a.resLocal - b.resLocal, resSLP: a.resSLP - b.resSLP,
		resInternet:    a.resInternet - b.resInternet,
		aodvDiscovered: a.aodvDiscovered - b.aodvDiscovered, aodvRREQ: a.aodvRREQ - b.aodvRREQ,
		trunkFrames: a.trunkFrames - b.trunkFrames, trunkBatched: a.trunkBatched - b.trunkBatched,
		trunkDelivered: a.trunkDelivered - b.trunkDelivered,
	}
}
