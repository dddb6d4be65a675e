package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"siphoc"
)

// measured is the raw record of one measured phase.
type measured struct {
	setupS     []float64 // wall time of each set-up to its readiness barrier
	w          *world
	outcomes   []callOutcome
	seconds    int
	cpuS       float64
	heapMB     float64
	goroutines int
	delta      counters
	ms0, ms1   runtime.MemStats
	pending    []float64 // clock.Scheduler queue depth samples
	lateMaxMs  float64
	notes      []string // lines for the report
	cpuShare   map[string]float64
	allocShare map[string]float64
	problems   []string
	// The registry before and after the measured phase; empty untraced.
	registry0, registry siphoc.RegistrySnapshot
}

func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runWorkload runs one workload end to end and computes its metrics.
func runWorkload(wl *workload, seed int64, seconds int, traced bool) (*result, error) {
	res := newResult()
	if !traced {
		m, err := measure(wl, seed, seconds, setups, false, nil)
		if err != nil {
			return nil, err
		}
		endToEnd(res, m)
		return res, nil
	}
	// Traced: an untraced pass gives the baseline CPU, then the traced
	// pass with observability, spans and profiles gives the layer figures.
	base, err := measure(wl, seed, seconds, 1, false, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m, err := measure(wl, seed, seconds, 1, true, tr)
	if err != nil {
		return nil, err
	}
	var diag *diagnostics
	if wl.diagnose != nil {
		if diag, err = wl.diagnose(seed); err != nil {
			return nil, err
		}
	}
	perLayer(res, m, tr, base.cpuS, diag)
	if err := tr.write(fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", wl.name, seed)); err != nil {
		return nil, err
	}
	res.notef("spans written to .bench_build/spans/%s-seed%d.jsonl", wl.name, seed)
	return res, nil
}

// measure builds the deployment builds times (keeping the last), runs the
// measured phase on it, checks the outputs and tears it down.
func measure(wl *workload, seed int64, seconds, builds int, traced bool, tr *tracer) (*measured, error) {
	m := &measured{seconds: seconds}
	for i := 0; i < builds; i++ {
		t0 := time.Now()
		var stp *tracer
		if i == builds-1 {
			stp = tr
		}
		w, err := wl.build(traced, stp)
		if err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		if i < builds-1 {
			w.close()
			continue
		}
		m.w = w
	}
	w := m.w
	defer w.close()
	m.goroutines = runtime.NumGoroutine()

	plans := wl.plan(rand.New(rand.NewSource(seed+1)), w, seconds)
	driver := newCallDriver(w, wl.frames, tr)

	var cpuProf bytes.Buffer
	var allocBefore allocDelta
	if traced {
		allocBefore = allocSnapshot()
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	obsv := w.scenarios[0].Observer()
	if obsv.Enabled() {
		m.registry0 = obsv.Snapshot()
	}
	runtime.GC()
	runtime.ReadMemStats(&m.ms0)
	before := snapshot(w)
	cpu0 := cpuNow()

	m.outcomes = driver.run(plans)
	if w.fed != nil {
		drainTrunks(w)
	}

	m.cpuS = cpuNow() - cpu0
	m.delta = snapshot(w).sub(before)
	runtime.ReadMemStats(&m.ms1)
	if traced {
		pprof.StopCPUProfile()
		shares, err := cpuShares(cpuProf.Bytes())
		if err != nil {
			return nil, err
		}
		m.cpuShare = shares
		m.allocShare = allocShares(allocBefore, allocSnapshot())
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	m.heapMB = float64(live.HeapAlloc) / (1 << 20)
	driver.close()
	if obsv.Enabled() {
		m.registry = obsv.Snapshot()
	}
	for _, o := range m.outcomes {
		if late := float64(o.late) / 1e6; late > m.lateMaxMs {
			m.lateMaxMs = late
		}
	}
	m.problems = append(m.problems, checkCalls(m.outcomes, wl.frames)...)
	if w.fed != nil {
		m.problems = append(m.problems, checkTrunk(m.delta)...)
	}
	n, probs := checkWorldRoutes(w.grids, rand.New(rand.NewSource(seed+2)))
	m.notes = append(m.notes, fmt.Sprintf("route check followed %d node pairs", n))
	m.problems = append(m.problems, probs...)
	return m, nil
}

// drainTrunks waits until every payload a gateway trunk batched has been
// delivered at the far gateway, or the flows stay still for a while.
func drainTrunks(w *world) {
	deadline := w.clk.Now().Add(drainTimeout)
	for w.clk.Now().Before(deadline) {
		ts := w.fed.TrunkStats()
		if ts.PayloadsDelivered >= ts.PayloadsBatched {
			return
		}
		w.clk.Sleep(20 * time.Millisecond)
	}
}

// established returns the outcomes of calls that did not fail.
func established(outs []callOutcome) []callOutcome {
	var ok []callOutcome
	for _, o := range outs {
		if o.err == nil {
			ok = append(ok, o)
		}
	}
	return ok
}

// outcome fills what every run reports: the operations attempted and
// failed, and whether the checks passed.
func outcome(res *result, m *measured) {
	res.attempted, res.failed = ops(m)
	for _, p := range m.problems {
		res.fail("%s", p)
	}
	for _, n := range m.notes {
		res.notef("%s", n)
	}
}

// endToEnd fills the metrics a user of the system sees.
func endToEnd(res *result, m *measured) {
	outcome(res, m)
	for _, o := range m.outcomes {
		if o.err != nil {
			res.notef("failed call %s (%d→%d): %v", o.callID, o.plan.caller, o.plan.callee, o.err)
		}
	}
	res.set("setup_s", median(m.setupS), "s")
	res.notef("setup_s samples: %v", m.setupS)
	res.set("cpu_s", m.cpuS, "s")
	res.set("heap_mb", m.heapMB, "MB")
	ok := established(m.outcomes)
	if len(ok) == 0 {
		return
	}
	var setups, mos []float64
	for _, o := range ok {
		setups = append(setups, float64(o.setup)/1e6)
		mos = append(mos, o.callerRecv.MOS)
	}
	s := sortedCopy(setups)
	res.set("call_setup_p50_ms", quantile(s, 0.5), "ms")
	if p95, okTail := tail(s); okTail {
		res.set("call_setup_p95_ms", p95, "ms")
		res.notef("call_setup_p95_ms rests on %d samples, %d beyond it", len(s), beyond(len(s), tailQuantile))
	} else {
		res.notef("call_setup_p95_ms not reported: %d samples leave %d beyond p95, need %d", len(s), beyond(len(s), tailQuantile), minBeyond)
	}
	res.set("mos_p10", quantile(sortedCopy(mos), 0.10), "MOS")
}

// ops returns the measured phase's attempted and failed operations: the
// calls.
func ops(m *measured) (attempted, failed int) {
	for _, o := range m.outcomes {
		if o.err != nil {
			failed++
		}
	}
	return len(m.outcomes), failed
}
