package main

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"time"

	"siphoc"
	"siphoc/internal/rtp"
	"siphoc/internal/sip"
)

// perLayer fills the traced run's per-layer metrics. Each is named after
// the repo module it measures; README.md lists which end-to-end metric each
// should move and on which workload.
func perLayer(res *result, m *measured, tr *tracer, untracedCPU float64, diag *diagnostics) {
	outcome(res, m)
	w, d := m.w, m.delta
	ok := established(m.outcomes)
	calls := float64(len(ok))
	nodes := float64(len(w.nodes()))
	perCall := func(name string, v float64, unit string) {
		if calls == 0 {
			res.absent(name, unit, "no call was established")
			return
		}
		res.set(name, v/calls, unit)
	}

	// netem
	perCall("netem.frames_per_call", float64(d.frames+d.inetFrames), "frames")
	res.set("netem.frames_per_node_s", float64(d.frames)/nodes/float64(m.seconds), "frames/s")
	res.set("netem.queue_drops", float64(d.portDrops), "count")
	res.set("netem.noroute_drops", float64(d.noRoute+d.ttlExpired), "count")

	// aodv and the event-loop scheduler: measured by the diagnostic passes.
	diagnosed(res, diag)

	// olsr
	res.set("olsr.recomputes_per_node_s", float64(d.olsrRecompute)/nodes/float64(m.seconds), "1/s")
	var routes int
	for _, n := range w.nodes() {
		routes += len(n.Routing().Routes())
	}
	res.set("olsr.routes_per_node", float64(routes)/nodes, "count")

	// slp
	var slpMs, sipMs float64
	for _, o := range ok {
		for _, ph := range o.breakdown {
			switch ph.Phase {
			case siphoc.PhaseSLPResolve:
				slpMs += float64(ph.Duration) / 1e6
			case siphoc.PhaseSIPTransaction:
				sipMs += float64(ph.Duration) / 1e6
			}
		}
	}
	perCall("slp.resolve_ms_per_call", slpMs, "ms")
	if d.slpLookups > 0 {
		res.set("slp.cache_hit_ratio", float64(d.slpHits)/float64(d.slpLookups), "ratio")
	} else {
		res.absent("slp.cache_hit_ratio", "ratio", "no SLP lookup in the measured phase")
	}
	if w.slpConvergenceS > 0 {
		res.set("slp.convergence_s", w.slpConvergenceS, "s")
	} else {
		res.absent("slp.convergence_s", "s", "the readiness barrier does not wait on SLP")
	}

	// sip
	perCall("sip.transaction_ms_per_call", sipMs, "ms")
	perCall("sip.retransmits_per_call", float64(m.registry.Counters["sip.retransmits"]-m.registry0.Counters["sip.retransmits"]), "count")
	parseNs, marshalNs, err := sipCodecNs()
	if err != nil {
		res.fail("%v", err)
	}
	res.set("sip.parse_ns", parseNs, "ns")
	res.set("sip.marshal_ns", marshalNs, "ns")

	// core
	if len(w.attachMs) > 0 {
		res.set("core.gateway_attach_ms", median(w.attachMs), "ms")
	} else {
		res.absent("core.gateway_attach_ms", "ms", "the workload has no gateway")
	}
	perCall("core.resolutions_per_call.local", float64(d.resLocal), "count")
	perCall("core.resolutions_per_call.slp", float64(d.resSLP), "count")
	perCall("core.resolutions_per_call.internet", float64(d.resInternet), "count")
	if d.trunkFrames > 0 {
		res.set("trunk.payloads_per_frame", float64(d.trunkBatched)/float64(d.trunkFrames), "count")
	} else {
		res.absent("trunk.payloads_per_frame", "count", "no trunk frame was sent")
	}

	// voip
	res.set("voip.register_ms", median(tr.durations("voip", "Register")), "ms")

	// rtp
	var sent, recv float64
	for _, o := range ok {
		sent += float64(o.callerSent + o.calleeSent)
		recv += float64(o.callerRecv.Received + o.calleeRecv.Received)
	}
	if sent > 0 {
		res.set("rtp.delivered_ratio", recv/sent, "ratio")
	} else {
		res.absent("rtp.delivered_ratio", "ratio", "the workload sends no voice")
	}
	codecNs, err := rtpCodecNs()
	if err != nil {
		res.fail("%v", err)
	}
	res.set("rtp.codec_ns", codecNs, "ns")

	// internet
	if len(w.poolBindMs) > 0 {
		res.set("internet.pool_bind_ms", median(w.poolBindMs), "ms")
	} else {
		res.absent("internet.pool_bind_ms", "ms", "the workload has no provider pool")
	}

	// obs
	res.set("obs.overhead_cpu_s", m.cpuS-untracedCPU, "s")
	res.notef("traced cpu_s %.3f, untraced cpu_s %.3f", m.cpuS, untracedCPU)

	// CPU and allocation shares; each set sums to 100 %.
	var sum float64
	for _, l := range shareLayers {
		res.set(l+".cpu_share", m.cpuShare[l], "%")
		res.set(l+".alloc_share", m.allocShare[l], "%")
		sum += m.cpuShare[l]
	}
	res.notef("cpu shares sum to %.2f%%", sum)

	// process-wide
	res.set("gc.cycles", float64(m.ms1.NumGC-m.ms0.NumGC), "count")
	res.set("alloc_mb", float64(m.ms1.TotalAlloc-m.ms0.TotalAlloc)/(1<<20), "MB")
	opsN, _ := ops(m)
	res.set("allocs_per_op", float64(m.ms1.Mallocs-m.ms0.Mallocs)/float64(max(opsN, 1)), "count")
	res.set("goroutines", float64(m.goroutines), "count")
	res.set("gen.late_max_ms", m.lateMaxMs, "ms")
}

// diagnosed fills the metrics of the traced run's diagnostic passes, or
// names them absent when the workload has none.
func diagnosed(res *result, d *diagnostics) {
	if d == nil {
		for _, n := range slices.Sorted(maps.Keys(diagUnits)) {
			res.absent(n, diagUnits[n], "only the manet-calls traced run makes the diagnostic passes")
		}
		return
	}
	for _, p := range d.problems {
		res.fail("%s", p)
	}
	for _, n := range d.notes {
		res.notef("%s", n)
	}
	set := func(n string, v float64) { res.set(n, v, diagUnits[n]) }
	absent := func(n, why string) { res.absent(n, diagUnits[n], why) }
	a := d.aodv
	res.notef("aodv variant: %d calls placed, %d confirmed", a.calls, a.established)
	if a.established > 0 {
		set("aodv.discoveries_per_call", float64(a.discoveries)/float64(a.established))
	} else {
		absent("aodv.discoveries_per_call", "no call of the AODV variant was confirmed")
	}
	if a.discoveries > 0 {
		set("aodv.discovery_p50_ms", a.discoveryP50Ms)
		set("aodv.rreq_per_discovery", float64(a.rreqs)/float64(a.discoveries))
	} else {
		absent("aodv.discovery_p50_ms", "the AODV variant completed no route discovery")
		absent("aodv.rreq_per_discovery", "the AODV variant completed no route discovery")
	}
	set("aodv.failed_calls", float64(a.failedCalls))
	set("aodv.lost_voice_calls", float64(a.lostVoiceCalls))
	set("aodv.ttl_expired", float64(a.ttlExpired))
	set("clock.pending_tasks", d.grid.pendingTasks)
	set("olsr.grid_convergence_s", d.grid.convergenceS)
}

// diagUnits is the unit of each diagnostic metric.
var diagUnits = map[string]string{
	"aodv.discoveries_per_call": "count",
	"aodv.discovery_p50_ms":     "ms",
	"aodv.rreq_per_discovery":   "count",
	"aodv.failed_calls":         "count",
	"aodv.lost_voice_calls":     "count",
	"aodv.ttl_expired":          "count",
	"clock.pending_tasks":       "count",
	"olsr.grid_convergence_s":   "s",
}

// sipCodecNs times parsing and marshalling over a corpus of the message
// shapes the call workloads exchange, and returns ns per message.
func sipCodecNs() (parseNs, marshalNs float64, err error) {
	corpus := sipCorpus()
	wire := make([][]byte, len(corpus))
	for i, m := range corpus {
		wire[i] = m.Marshal()
	}
	const rounds = 2000
	var buf []byte
	t0 := time.Now()
	for range rounds {
		for _, m := range corpus {
			buf = m.AppendTo(buf[:0])
		}
	}
	marshalNs = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(corpus))
	t0 = time.Now()
	for range rounds {
		for _, b := range wire {
			if _, err := sip.Parse(b); err != nil {
				return 0, 0, fmt.Errorf("sip: a marshalled %q does not parse: %w", b[:bytes.IndexByte(b, '\r')], err)
			}
		}
	}
	parseNs = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(wire))
	return parseNs, marshalNs, nil
}

// sipCorpus builds one message of each shape a call exchanges: REGISTER,
// INVITE with an SDP offer, 100/180/200 (with SDP answer), ACK, BYE and its
// 200.
func sipCorpus() []*sip.Message {
	uri := func(user, host string) *sip.URI { return &sip.URI{Scheme: "sip", User: user, Host: host} }
	from := &sip.NameAddr{URI: uri("p1", "manet.example"), Params: map[string]string{"tag": "a1b2c3"}}
	to := &sip.NameAddr{URI: uri("p2", "manet.example")}
	via := &sip.Via{Transport: "UDP", Host: "10.0.0.7", Port: 5062, Params: map[string]string{"branch": "z9hG4bK-1a2b3c"}}
	sdpBody := []byte("v=0\r\no=p1 1 1 IN IP4 10.0.0.7\r\ns=siphoc\r\nc=IN IP4 10.0.0.7\r\nt=0 0\r\nm=audio 40000 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n")

	req := func(method string, seq uint32, body []byte) *sip.Message {
		m := sip.NewRequest(method, uri("p2", "10.0.0.19"))
		m.Via = []*sip.Via{via}
		m.From, m.To = from, to
		m.CallID = "4f2c9a1e@10.0.0.7"
		m.CSeq = sip.CSeq{Seq: seq, Method: method}
		m.Contact = []*sip.NameAddr{{URI: uri("p1", "10.0.0.7")}}
		if body != nil {
			m.ContentType = "application/sdp"
			m.Body = body
		}
		return m
	}
	reg := req(sip.MethodRegister, 1, nil)
	reg.Expires = 3600
	invite := req(sip.MethodInvite, 2, sdpBody)
	msgs := []*sip.Message{reg, invite}
	for _, code := range []int{100, 180, 200} {
		r := sip.NewResponse(invite, code, "")
		if code == 200 {
			r.ContentType = "application/sdp"
			r.Body = sdpBody
		}
		msgs = append(msgs, r)
	}
	bye := req(sip.MethodBye, 3, nil)
	msgs = append(msgs, req(sip.MethodAck, 2, nil), bye, sip.NewResponse(bye, 200, ""))
	return msgs
}

// rtpCodecNs times one voice frame's packet append plus parse.
func rtpCodecNs() (float64, error) {
	pkt := rtp.NewVoiceFrame(0x1234, 1, time.Now())
	var buf []byte
	var p rtp.Packet
	const rounds = 200000
	t0 := time.Now()
	for i := range rounds {
		pkt.Seq = uint16(i)
		buf = pkt.AppendTo(buf[:0])
		if err := rtp.ParseInto(&p, buf); err != nil {
			return 0, fmt.Errorf("rtp: an appended voice frame does not parse: %w", err)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / rounds, nil
}
