package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"siphoc"
)

// callPlan is one call the generator places: due is its offset from the
// start of the measured phase.
type callPlan struct {
	due            time.Duration
	caller, callee int // indexes into the phone list
}

// planCalls spreads whole rounds of the given caller/callee pairs over the
// measured phase: every round holds each pair once, in an order the seed
// shuffles. The number of rounds is what the nominal rate gives over the
// phase, rounded to a whole number (at least one), so every run of a
// workload calls over the same mix of pairs and only the order and timing
// depend on the seed. Call i is due at a seeded random instant within the
// i-th of n equal slots: the load is the nominal rate, but arrivals do not
// lock onto the program's periodic timers.
func planCalls(rng *rand.Rand, pairs [][2]int, rate float64, seconds int) []callPlan {
	rounds := int(math.Round(rate * float64(seconds) / float64(len(pairs))))
	if rounds < 1 {
		rounds = 1
	}
	n := rounds * len(pairs)
	gap := time.Duration(float64(seconds) * float64(time.Second) / float64(n))
	plans := make([]callPlan, 0, n)
	for range rounds {
		for _, k := range rng.Perm(len(pairs)) {
			due := time.Duration((float64(len(plans)) + rng.Float64()) * float64(gap))
			plans = append(plans, callPlan{due: due, caller: pairs[k][0], callee: pairs[k][1]})
		}
	}
	return plans
}

// callOutcome is what one call produced, as seen from outside the program.
type callOutcome struct {
	plan   callPlan
	callID string
	late   time.Duration // how late the generator dialled
	setup  time.Duration // due instant → dialog confirmed
	err    error

	callerSent, calleeSent int               // voice frames each side sent
	callerRecv, calleeRecv siphoc.MediaStats // each side's receive statistics
	rang                   []int             // phones whose Incoming delivered the call
	breakdown              []siphoc.PhaseDuration
}

// answered is the callee side of one call, keyed by Call-ID.
type answered struct {
	done chan struct{} // closed once the callee's voice stream ended
	call *siphoc.Call
	sent int
	err  error
}

// callDriver places calls on a fixed phone population and answers them:
// one goroutine per phone drains its Incoming channel, so the program's
// bounded ring queue never overflows on the benchmark's account.
type callDriver struct {
	clk    clockLike
	phones []*siphoc.Phone
	frames int // voice frames per direction
	tr     *tracer

	mu      sync.Mutex
	callees map[string]*answered
	rang    map[string][]int
	stop    chan struct{}
	wg      sync.WaitGroup
}

// clockLike is the part of the scenario clock the driver uses.
type clockLike interface {
	Now() time.Time
	Sleep(time.Duration)
}

const (
	establishTimeout = 20 * time.Second
	drainTimeout     = 5 * time.Second
)

func newCallDriver(w *world, frames int, tr *tracer) *callDriver {
	d := &callDriver{
		clk: w.clk, phones: w.phones, frames: frames, tr: tr,
		callees: make(map[string]*answered),
		rang:    make(map[string][]int),
		stop:    make(chan struct{}),
	}
	for i, ph := range d.phones {
		d.wg.Add(1)
		go d.answerLoop(i, ph)
	}
	return d
}

// close stops the answer loops and waits for every callee goroutine.
func (d *callDriver) close() {
	close(d.stop)
	d.wg.Wait()
}

func (d *callDriver) entry(callID string) *answered {
	d.mu.Lock()
	defer d.mu.Unlock()
	a := d.callees[callID]
	if a == nil {
		a = &answered{done: make(chan struct{})}
		d.callees[callID] = a
	}
	return a
}

func (d *callDriver) answerLoop(idx int, ph *siphoc.Phone) {
	defer d.wg.Done()
	for {
		select {
		case <-d.stop:
			return
		case inc := <-ph.Incoming():
			id := inc.ID()
			d.mu.Lock()
			d.rang[id] = append(d.rang[id], idx)
			d.mu.Unlock()
			a := d.entry(id)
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				defer close(a.done)
				a.call = inc
				if err := inc.WaitEstablished(establishTimeout); err != nil {
					a.err = fmt.Errorf("callee %d: %w", idx, err)
					return
				}
				if st := inc.StartVoice(d.frames); st != nil {
					a.sent = st.Wait()
				}
			}()
		}
	}
}

// run places every planned call from one generator goroutine at its due
// instant on the scenario clock and waits for all of them to finish. A
// stall in the generator makes later calls late, and the lateness counts
// against their set-up time.
func (d *callDriver) run(plans []callPlan) []callOutcome {
	out := make([]callOutcome, len(plans))
	var wg sync.WaitGroup
	start := d.clk.Now()
	for i, p := range plans {
		if wait := start.Add(p.due).Sub(d.clk.Now()); wait > 0 {
			d.clk.Sleep(wait)
		}
		o := &out[i]
		o.plan = p
		o.late = d.clk.Now().Sub(start.Add(p.due))
		dialAt := d.clk.Now()
		call, err := d.phones[p.caller].Dial(d.phones[p.callee].AOR())
		if err != nil {
			o.err = fmt.Errorf("dial: %w", err)
			continue
		}
		o.callID = call.ID()
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.finish(o, call, dialAt)
		}()
	}
	wg.Wait()
	d.mu.Lock()
	for i := range out {
		out[i].rang = append([]int(nil), d.rang[out[i].callID]...)
	}
	d.mu.Unlock()
	return out
}

// finish waits for one call to be confirmed, exchanges voice both ways,
// waits for every frame to land, records the outcome and hangs up.
func (d *callDriver) finish(o *callOutcome, call *siphoc.Call, dialAt time.Time) {
	// Forget the callee's Call once done, so heap_mb does not count calls
	// only the benchmark still holds.
	defer func() {
		d.mu.Lock()
		delete(d.callees, o.callID)
		d.mu.Unlock()
	}()
	err := call.WaitEstablished(establishTimeout)
	d.tr.record(o.callID, "voip", "Dial", dialAt, d.clk.Now(), err)
	if err != nil {
		o.err = fmt.Errorf("establish (code %d): %w", call.FailCode(), err)
		_ = call.Cancel()
		return
	}
	o.setup = o.late + call.SetupDuration()
	if d.tr != nil {
		o.breakdown = call.Trace().SetupBreakdown()
	}
	if st := call.StartVoice(d.frames); st != nil {
		o.callerSent = st.Wait()
	}
	a := d.entry(o.callID)
	select {
	case <-a.done:
	case <-time.After(establishTimeout):
		o.err = fmt.Errorf("callee side of %s never finished", o.callID)
		return
	}
	if a.err != nil {
		o.err = a.err
		return
	}
	o.calleeSent = a.sent
	// Frames still in flight land within a path delay; wait until both
	// receive sides account for every frame the other side sent, or give
	// up after drainTimeout and let the conservation check report it.
	deadline := d.clk.Now().Add(drainTimeout)
	for {
		o.callerRecv, o.calleeRecv = call.MediaStats(), a.call.MediaStats()
		if o.callerRecv.Received >= int64(o.calleeSent) && o.calleeRecv.Received >= int64(o.callerSent) {
			break
		}
		if d.clk.Now().After(deadline) {
			break
		}
		d.clk.Sleep(5 * time.Millisecond)
	}
	hangAt := d.clk.Now()
	err = call.Hangup()
	d.tr.record(o.callID, "voip", "Hangup", hangAt, d.clk.Now(), err)
	if err != nil {
		o.err = fmt.Errorf("hangup: %w", err)
		return
	}
	if err := a.call.WaitEnded(establishTimeout); err != nil {
		o.err = fmt.Errorf("callee teardown: %w", err)
	}
}

// register registers every phone, recording one span each.
func register(phones []*siphoc.Phone, clk clockLike, tr *tracer) error {
	for _, ph := range phones {
		t0 := clk.Now()
		err := ph.Register()
		tr.record("reg:"+ph.AOR(), "voip", "Register", t0, clk.Now(), err)
		if err != nil {
			return fmt.Errorf("register %s: %w", ph.AOR(), err)
		}
	}
	return nil
}
