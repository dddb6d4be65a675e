package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"siphoc"
	"siphoc/internal/core"
	"siphoc/internal/routing/olsr"
)

// workload is one set of inputs the benchmark runs. build brings a fresh
// deployment up to its readiness barrier; plan draws the measured phase's
// calls from the seed. The deployment itself does not depend on the seed.
type workload struct {
	name  string
	build func(observe bool, tr *tracer) (*world, error)
	plan  func(rng *rand.Rand, w *world, seconds int) []callPlan
	// frames is the voice frames per direction of each call.
	frames int
	// diagnose, if set, runs the workload's extra traced-run passes.
	diagnose func(seed int64) (*diagnostics, error)
}

// setups is how many times an untraced run builds the deployment; the
// median of their set-up times is reported and the last one measured.
const setups = 5

var workloads = []*workload{manetCalls, federationCalls}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	manetSide    = 6
	manetSpacing = 80.0 // m: each node reaches only its axis neighbours
	manetRate    = 30.0 // calls per second, rounded to whole rounds of pairs
	manetFrames  = 25   // 0.5 s of voice each way

	fedIslands  = 3
	fedGateways = 2
	fedClients  = 6
	fedShards   = 4
	fedRate     = 20.0
	fedFrames   = 50 // 1 s of voice each way
	fedSpacing  = 80.0
)

// manetCalls is the paper's own setting: one MANET, no Internet. It routes
// with OLSR; README.md says why not AODV. Its traced run adds the AODV
// variant and the event-loop grid as diagnostic passes (diagnose.go).
var manetCalls = &workload{
	name:   "manet-calls",
	frames: manetFrames,
	build: func(observe bool, tr *tracer) (*world, error) {
		return buildManet(observe, tr, manetOLSRVariant())
	},
	plan: func(rng *rand.Rand, w *world, seconds int) []callPlan {
		return planCalls(rng, manetPairs(len(w.phones)), manetRate, seconds)
	},
	diagnose: manetDiagnostics,
}

// manetPairs is every ordered pair of distinct phones.
func manetPairs(n int) [][2]int {
	return pairsWhere(n, func(a, b int) bool { return a != b })
}

// manetVariant is how the MANET's nodes route and what they run.
type manetVariant struct {
	scenario []siphoc.ScenarioOption
	node     []siphoc.NodeOption
}

// manetOLSRVariant is the measured MANET: OLSR at fixed intervals and no
// Connection Provider, since there is no Internet to reach.
func manetOLSRVariant() manetVariant {
	cfg := manetOLSR()
	return manetVariant{
		scenario: []siphoc.ScenarioOption{siphoc.WithOLSR(&cfg)},
		node:     []siphoc.NodeOption{siphoc.WithoutConnectionProvider()},
	}
}

// pairsWhere lists the ordered phone pairs (caller, callee) out of n phones
// that keep says are a call of the workload.
func pairsWhere(n int, keep func(a, b int) bool) [][2]int {
	var out [][2]int
	for a := range n {
		for b := range n {
			if keep(a, b) {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

func buildManet(observe bool, tr *tracer, v manetVariant) (*world, error) {
	opts := append([]siphoc.ScenarioOption{siphoc.WithSLPMode(siphoc.SLPPiggyback)}, v.scenario...)
	if !observe {
		opts = append(opts, siphoc.WithoutObservability())
	}
	sc, err := siphoc.NewScenarioWith(opts...)
	if err != nil {
		return nil, fmt.Errorf("manet scenario: %w", err)
	}
	w := &world{clk: sc.Clock(), scenarios: []*siphoc.Scenario{sc}, close: sc.Close}
	nodes, err := sc.Grid(manetSide, manetSide, manetSpacing, v.node...)
	if err != nil {
		w.close()
		return nil, fmt.Errorf("manet grid: %w", err)
	}
	// Grid numbers its nodes row by row.
	g := routeGrid{spacing: manetSpacing, tables: scenarioTables(sc)}
	for k, n := range nodes {
		g.nodes = append(g.nodes, gridNode{id: n.ID(), row: k / manetSide, col: k % manetSide})
	}
	w.grids = []routeGrid{g}
	for i, k := range manetPhoneNodes() {
		ph, err := nodes[k].NewPhone(fmt.Sprintf("p%d", i), "manet.example")
		if err != nil {
			w.close()
			return nil, fmt.Errorf("manet phone: %w", err)
		}
		w.phones = append(w.phones, ph)
		w.phoneNodes = append(w.phoneNodes, nodes[k])
	}
	if err := register(w.phones, w.clk, tr); err != nil {
		w.close()
		return nil, err
	}
	t0 := w.clk.Now()
	if err := slpBarrier(w, tr); err != nil {
		w.close()
		return nil, err
	}
	w.slpConvergenceS = w.clk.Now().Sub(t0).Seconds()
	return w, nil
}

// manetOLSR is the MANET's fixed OLSR timing. The TC interval is not a
// multiple of the HELLO interval: the program adds no emission jitter and
// the nodes come up within milliseconds, so with commensurate intervals
// every HELLO and TC fires at the same instants and the SLP barrier lands
// on one tick or the next at random.
func manetOLSR() olsr.Config {
	return olsr.Config{
		HelloInterval: 250 * time.Millisecond,
		TCInterval:    600 * time.Millisecond,
		RouteWait:     3 * time.Second,
	}
}

// manetPhoneNodes places the phones on a fixed lattice of the grid, two per
// row, every third node along the diagonals: (r+c) mod 3 = 0. The placement
// is part of the workload, not of its seeded inputs, so every seed calls
// over the same mix of path lengths.
func manetPhoneNodes() []int {
	var out []int
	for r := range manetSide {
		for c := range manetSide {
			if (r+c)%3 == 0 {
				out = append(out, r*manetSide+c)
			}
		}
	}
	return out
}

// slpBarrier returns once every phone's node resolves every phone's AOR
// through MANET SLP.
func slpBarrier(w *world, tr *tracer) error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.phoneNodes))
	for i, n := range w.phoneNodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ph := range w.phones {
				t0 := w.clk.Now()
				_, err := n.SLP().Lookup(core.SIPServiceType, ph.AOR(), 30*time.Second)
				tr.record(fmt.Sprintf("lookup:%s:%s", n.ID(), ph.AOR()), "slp", "Lookup", t0, w.clk.Now(), err)
				if err != nil {
					errs[i] = fmt.Errorf("slp barrier: %s cannot resolve %s: %w", n.ID(), ph.AOR(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// federationCalls exercises the Internet side: OLSR islands joined through
// gateways, the sharded provider pool and trunked media.
var federationCalls = &workload{
	name:   "federation-calls",
	frames: fedFrames,
	build:  buildFederation,
	plan: func(rng *rand.Rand, w *world, seconds int) []callPlan {
		// Callee on another island: every call crosses gateways.
		return planCalls(rng, pairsWhere(len(w.phones), func(a, b int) bool { return a/fedClients != b/fedClients }), fedRate, seconds)
	},
}

func buildFederation(observe bool, tr *tracer) (*world, error) {
	const domain = "fed.example"
	fed, err := siphoc.NewFederationScenario(siphoc.FederationConfig{
		Islands:           fedIslands,
		GatewaysPerIsland: fedGateways,
		ClientsPerIsland:  fedClients,
		Shards:            fedShards,
		Domain:            domain,
		Spacing:           fedSpacing,
		Trunk:             true,
		NoObservability:   !observe,
	})
	if err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	w := &world{clk: fed.Clock(), fed: fed, scenarios: fed.Islands(), close: fed.Close}
	w.grids = islandGrids(fed, fedGateways+fedClients, fedSpacing)
	if err := fed.WaitAttached(time.Minute); err != nil {
		w.close()
		return nil, fmt.Errorf("federation attach: %w", err)
	}
	for _, n := range fed.Clients() {
		w.attachMs = append(w.attachMs, float64(n.ConnectionProvider().Stats().LastAttachDur)/1e6)
	}
	// One phone per client node, island by island, so phone i lives on
	// island i/fedClients.
	for i, n := range fed.Clients() {
		user := fmt.Sprintf("u%d", i)
		fed.Pool().AddAccount(user)
		ph, err := n.NewPhone(user, domain)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("federation phone: %w", err)
		}
		w.phones = append(w.phones, ph)
		w.phoneNodes = append(w.phoneNodes, n)
	}
	for _, ph := range w.phones {
		t0 := w.clk.Now()
		if err := register([]*siphoc.Phone{ph}, w.clk, tr); err != nil {
			w.close()
			return nil, err
		}
		for {
			if _, ok := fed.Pool().Binding(ph.AOR()); ok {
				break
			}
			if w.clk.Now().Sub(t0) > time.Minute {
				w.close()
				return nil, fmt.Errorf("federation: %s never bound at the provider tier", ph.AOR())
			}
			w.clk.Sleep(time.Millisecond)
		}
		w.poolBindMs = append(w.poolBindMs, float64(w.clk.Now().Sub(t0))/1e6)
	}
	return w, nil
}
