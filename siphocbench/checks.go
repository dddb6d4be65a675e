package main

import (
	"fmt"
	"math"
	"math/rand"

	"siphoc"
)

// The checks below compare the program's outputs with computations the
// benchmark makes on its own or with properties the method must have;
// none compares with a stored copy of an earlier run.

// checkCalls checks every call that did not fail: it rang the intended
// phone and only that one, no voice frame was lost (the medium has no loss
// configured), and each receive side's MOS agrees with the benchmark's own
// G.107 E-model recomputed from that side's measured delay and loss.
func checkCalls(outs []callOutcome, frames int) []string {
	var probs []string
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		probs = append(probs, frameConservation(o, frames)...)
		probs = append(probs, identityAndMOS(o)...)
	}
	return probs
}

// identityAndMOS runs the checks of one confirmed call that do not depend
// on every frame arriving: callee identity and the E-model agreement.
func identityAndMOS(o callOutcome) []string {
	var probs []string
	if p := calleeIdentity(o); p != "" {
		probs = append(probs, p)
	}
	for side, st := range map[string]siphoc.MediaStats{"caller": o.callerRecv, "callee": o.calleeRecv} {
		if p := emodelAgreement(st); p != "" {
			probs = append(probs, fmt.Sprintf("call %s %s side: %s", o.callID, side, p))
		}
	}
	return probs
}

// calleeIdentity requires that the call rang exactly the intended phone.
func calleeIdentity(o callOutcome) string {
	if len(o.rang) != 1 || o.rang[0] != o.plan.callee {
		return fmt.Sprintf("call %s to phone %d rang phones %v", o.callID, o.plan.callee, o.rang)
	}
	return ""
}

// frameConservation requires that each side sent its full stream and that
// the other side received every frame of it.
func frameConservation(o callOutcome, frames int) []string {
	var probs []string
	if o.callerSent != frames || o.calleeSent != frames {
		probs = append(probs, fmt.Sprintf("call %s sent %d/%d frames, want %d each way", o.callID, o.callerSent, o.calleeSent, frames))
	}
	if o.callerRecv.Received != int64(o.calleeSent) || o.calleeRecv.Received != int64(o.callerSent) {
		probs = append(probs, fmt.Sprintf("call %s lost voice: caller got %d of %d, callee got %d of %d",
			o.callID, o.callerRecv.Received, o.calleeSent, o.calleeRecv.Received, o.callerSent))
	}
	return probs
}

// emodelAgreement recomputes the MOS of one receive side with G.107.
func emodelAgreement(st siphoc.MediaStats) string {
	if st.Received == 0 {
		return "no media received"
	}
	want := g107MOS(g107R(float64(st.AvgDelay)/1e6, st.LossRate))
	if math.Abs(want-st.MOS) > mosTolerance {
		return fmt.Sprintf("MOS %.3f, G.107 gives %.3f for %v one-way and %.2f%% loss", st.MOS, want, st.AvgDelay, 100*st.LossRate)
	}
	return ""
}

// checkTrunk requires that after the drain every payload a gateway trunk
// batched during the measured phase was delivered at the far gateway.
func checkTrunk(d counters) []string {
	if d.trunkBatched == 0 {
		return []string{"trunking is on but no payload was batched"}
	}
	if d.trunkDelivered != d.trunkBatched {
		return []string{fmt.Sprintf("trunk batched %d payloads but delivered %d", d.trunkBatched, d.trunkDelivered)}
	}
	return nil
}

// routeSamples is how many seeded node pairs the route check follows on
// each grid.
const routeSamples = 100

// nextHopper is the routing table lookup the route check follows.
type nextHopper interface {
	NextHop(dst siphoc.NodeID) (siphoc.NodeID, bool)
}

// gridNode places a node on a rows×cols grid of the given spacing.
type gridNode struct {
	id       siphoc.NodeID
	row, col int
}

// routeGrid is one MANET laid out as a grid, for the route check.
type routeGrid struct {
	nodes   []gridNode
	spacing float64
	tables  func(siphoc.NodeID) (nextHopper, bool)
}

// scenarioTables looks up a node's routing table in one MANET.
func scenarioTables(sc *siphoc.Scenario) func(siphoc.NodeID) (nextHopper, bool) {
	return func(id siphoc.NodeID) (nextHopper, bool) {
		n := sc.Node(id)
		if n == nil {
			return nil, false
		}
		return n.Routing(), true
	}
}

// islandGrids lays out every federation island for the route check. An
// island is a one-row grid: its nodes sit on a line at the federation's
// spacing, gateways first, and are named "10.<island+1>.0.<index+1>".
func islandGrids(fed *siphoc.FederationScenario, perIsland int, spacing float64) []routeGrid {
	var out []routeGrid
	for i, sc := range fed.Islands() {
		g := routeGrid{spacing: spacing, tables: scenarioTables(sc)}
		for j := range perIsland {
			g.nodes = append(g.nodes, gridNode{id: siphoc.NodeID(fmt.Sprintf("%s.%d", fed.IslandPrefix(i), j+1)), col: j})
		}
		out = append(out, g)
	}
	return out
}

// checkWorldRoutes runs the route check on every grid of a world and
// returns the number of pairs followed and the problems found.
func checkWorldRoutes(grids []routeGrid, rng *rand.Rand) (int, []string) {
	var total int
	var probs []string
	for _, g := range grids {
		n, p := checkRoutes(g.nodes, g.spacing, radioRange, routeSamples, rng, g.tables)
		total += n
		probs = append(probs, p...)
	}
	return total, probs
}

// radioRange is the medium's default unit-disk range in metres.
const radioRange = 100.0

// checkRoutes follows NextHop between seeded pairs of grid nodes. On a full
// grid whose spacing lets the radio reach only the axis neighbours, every
// shortest path is as long as the Manhattan distance between its ends, and
// every hop joins two nodes within radio range. It returns the number of
// pairs followed and a line for each route that breaks either property.
func checkRoutes(grid []gridNode, spacing, rangeM float64, samples int, rng *rand.Rand, tables func(siphoc.NodeID) (nextHopper, bool)) (int, []string) {
	at := make(map[siphoc.NodeID]gridNode, len(grid))
	for _, g := range grid {
		at[g.id] = g
	}
	var probs []string
	for range samples {
		a := grid[rng.Intn(len(grid))]
		b := grid[rng.Intn(len(grid)-1)]
		if b.id == a.id {
			b = grid[len(grid)-1]
		}
		want := abs(a.row-b.row) + abs(a.col-b.col)
		if p := followRoute(a.id, b.id, want, spacing, rangeM, at, tables); p != "" {
			probs = append(probs, p)
		}
	}
	return samples, probs
}

func followRoute(src, dst siphoc.NodeID, want int, spacing, rangeM float64, at map[siphoc.NodeID]gridNode, tables func(siphoc.NodeID) (nextHopper, bool)) string {
	cur, hops := src, 0
	for cur != dst {
		t, ok := tables(cur)
		if !ok {
			return fmt.Sprintf("route %s→%s reaches unknown node %s", src, dst, cur)
		}
		next, ok := t.NextHop(dst)
		if !ok {
			return fmt.Sprintf("route %s→%s: %s has no next hop", src, dst, cur)
		}
		q, known := at[next]
		if !known {
			return fmt.Sprintf("route %s→%s: next hop %s is not a grid node", src, dst, next)
		}
		p := at[cur]
		if d := math.Hypot(float64(p.col-q.col)*spacing, float64(p.row-q.row)*spacing); d > rangeM {
			return fmt.Sprintf("route %s→%s: hop %s→%s spans %.0f m, beyond the %.0f m radio range", src, dst, cur, next, d, rangeM)
		}
		hops++
		if hops > want {
			return fmt.Sprintf("route %s→%s is longer than the %d-hop Manhattan distance", src, dst, want)
		}
		cur = next
	}
	if hops != want {
		return fmt.Sprintf("route %s→%s took %d hops, Manhattan distance is %d", src, dst, hops, want)
	}
	return ""
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
