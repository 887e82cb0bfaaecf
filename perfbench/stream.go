package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"alpha/internal/admission"
	"alpha/internal/core"
	"alpha/internal/obs"
	"alpha/internal/packet"
	"alpha/internal/relay"
	"alpha/internal/telemetry"
	"alpha/internal/udptransport"
)

// streamSpec describes a one-association message stream through client
// Conn -> verifying Relay -> Server over loopback UDP.
type streamSpec struct {
	mode     packet.Mode
	batch    int
	size     int           // payload bytes
	inFlight int           // closed-loop window; 0 selects an open loop
	rate     float64       // open-loop messages per second
	maxRate  float64       // chain sizing bound, messages per second
	deadline time.Duration // an undelivered message fails after this
	warm     time.Duration

	strict      bool    // relay drops unknown associations
	s1Rate      float64 // relay UnsolicitedS1Rate, per second
	obs         bool    // program tracer and flight recorder on
	hostileRate float64 // forged packets per second from the client socket, half S2s and half S1s
	// admission makes the server require connect tokens; the client dials
	// with one minted for the address the server sees it at, the relay's.
	admission bool
	hsRate    float64 // forged HS1s per second sent straight to the server
}

// bulk is the WMN bulk transfer of §4.1.2: ALPHA-M n=16, reliable, 1 KiB
// payloads, a closed loop of MaxOutstanding x n messages in flight.
var bulkSpec = streamSpec{
	mode: packet.ModeM, batch: 16, size: 1024,
	inFlight: core.DefaultMaxOutstanding * 16,
	maxRate:  100_000, deadline: time.Second, warm: 300 * time.Millisecond,
	strict: true,
}

// bulk48 is bulk with three exchanges (48 messages) in flight instead of
// eight. An ALPHA-M exchange puts one S1 and 16 S2s in the server's
// per-session inbox, so three exchanges, 51 datagrams, are the most that
// its 64-datagram bound holds whole: a server that falls behind does not
// overflow it, short of retransmissions, and lose a message. bulk itself, at the default window, loses a few
// messages in 10^5 to that overflow (NOTES.md), a number of them that
// differs from run to run.
var bulk48Spec = streamSpec{
	mode: packet.ModeM, batch: 16, size: 1024,
	inFlight: 3 * 16,
	maxRate:  60_000, deadline: time.Second, warm: 300 * time.Millisecond,
	strict: true,
}

// signal is mobile/middlebox signalling under attack (§4.1.1, §3.5): base
// mode, reliable, 64 B payloads arriving as a Poisson process, observability
// on, and a seeded stream of forged S2s and unknown-association S1s.
//
// The relay's S1 budget is the one the README configures a relay with
// (alphanode -s1-rate 100, default burst). Unknown-association S1s arrive
// at twice that budget, so the §3.5 rate limit drops about half of them and
// both the limit and the unknown-association path run; the forged S2s for
// the live association come one for one with them.
//
// The server requires connect tokens, as alphanode -require-token deploys
// it, and forged HS1s for unknown associations reach it straight from the
// client's socket at the same rate as the unknown-association S1s: the
// same first-contact flood, aimed past the relay at the admission tier.
var signalSpec = streamSpec{
	mode: packet.ModeBase, batch: 1, size: 64,
	rate: 2000, maxRate: 3000, deadline: time.Second, warm: 300 * time.Millisecond,
	s1Rate: signalS1Rate, obs: true, hostileRate: 2 * (2 * signalS1Rate),
	admission: true, hsRate: 2 * signalS1Rate,
}

const signalS1Rate = 100

type streamLive struct {
	spec streamSpec
	p    *passConfig
	in   instruments
	obs  [3]*nodeObs

	cliPC net.PacketConn
	relAt net.Addr
	srvAt net.Addr
	srv   *udptransport.Server
	rel   *udptransport.Relay
	conn  *udptransport.Conn
	sess  *udptransport.Session
	exp   *telemetry.Exporter
	tr    *tracker

	arrivals []time.Duration // open loop: due offsets from the start
	forged   [][]byte        // hostile packets, generated before measuring
	forgedHS [][]byte        // hostile handshakes for the server, likewise
	mint     [2]time.Time    // start and end of the dial's token mint
	lag      []float64       // open loop: generator lateness, ms
	lagMu    sync.Mutex

	bad, hostile, unknown atomic.Int64 // delivered payloads failing the check

	stop chan struct{} // closed to end the traffic generators
	done chan struct{} // closed at teardown
	gens sync.WaitGroup
	wg   sync.WaitGroup
}

func setupStream(spec streamSpec) func(p *passConfig) (live, error) {
	return func(p *passConfig) (live, error) {
		l := &streamLive{spec: spec, p: p, in: newInstruments(p.spans != nil), stop: make(chan struct{}), done: make(chan struct{})}
		if err := l.start(); err != nil {
			l.close()
			return nil, err
		}
		return l, nil
	}
}

func (l *streamLive) config(role int) core.Config {
	cfg := core.Config{
		Suite:     l.in.suite(role),
		Mode:      l.spec.mode,
		BatchSize: l.spec.batch,
		Reliable:  true,
		ChainLen:  chainLen(l.spec.maxRate, l.spec.warm+l.p.window+l.spec.deadline, l.spec.batch),
	}
	if o := l.obs[role]; o != nil {
		cfg.Tracer, cfg.Spans = o.tracer, o.rec.Shared()
	}
	return cfg
}

func (l *streamLive) start() error {
	spec, spans := l.spec, l.p.spans
	if spec.obs {
		for i := range l.obs {
			l.obs[i] = newNodeObs()
		}
	}
	srvPC, err := listen()
	if err != nil {
		return err
	}
	relPC, err := listen()
	if err != nil {
		srvPC.Close()
		return err
	}
	if l.cliPC, err = listen(); err != nil {
		srvPC.Close()
		relPC.Close()
		return err
	}
	l.relAt = relPC.LocalAddr()

	l.srvAt = srvPC.LocalAddr()
	var opts udptransport.ServerOptions
	var issuer *admission.Issuer
	if spec.admission {
		var key admission.Key
		copy(key[:], l.p.gen.pool)
		if issuer, err = admission.NewIssuer(1, key); err == nil {
			opts.Admission, err = admission.NewVerifier(admission.VerifierConfig{Keys: map[uint8]admission.Key{1: key}, Require: true})
		}
		if err != nil {
			srvPC.Close()
			relPC.Close()
			return err
		}
	}
	l.srv = udptransport.NewServerWith(l.config(roleServer), opts, srvPC)
	rcfg := relay.Config{Strict: spec.strict, UnsolicitedS1Rate: spec.s1Rate, SuiteOverride: l.in.override()}
	if o := l.obs[roleRelay]; o != nil {
		rcfg.Tracer, rcfg.Spans = o.tracer, o.rec.Shared()
	}
	l.rel = udptransport.NewRelay(relPC, l.cliPC.LocalAddr(), srvPC.LocalAddr(), rcfg)

	l.exp = telemetry.NewExporter()
	l.exp.Register("alpha_relay", l.rel.Telemetry())
	l.exp.Register("alpha_relay_transport", l.rel.TransportTelemetry())
	l.exp.Register("alpha_transport", l.srv.Telemetry())
	if opts.Admission != nil {
		l.exp.Register("alpha_admission", opts.Admission.Metrics())
	}
	l.exp.Register("alpha_server_endpoint", telemetry.WalkerFunc(func(v telemetry.Visitor) {
		l.srv.EndpointTelemetry().Walk(v)
	}))
	if o := l.obs[roleServer]; o != nil {
		l.srv.SetFlightRecorder(o.rec)
		l.exp.SetTracer(o.tracer)
		obs.RegisterRuntime(l.exp)
	}

	cfg := l.config(roleClient)
	if issuer != nil {
		via := l.relAt.(*net.UDPAddr)
		cfg.TokenSource = func(sig, ack []byte) ([]byte, error) {
			l.mint[0] = time.Now()
			tok, err := issuer.Mint(l.mint[0], time.Minute, via.IP, via.Port, sig, ack)
			l.mint[1] = time.Now()
			return tok, err
		}
	}
	t0 := time.Now()
	conn, err := udptransport.Dial(l.cliPC, l.relAt, cfg, 10*time.Second)
	spans.add("udptransport.Dial", 0, t0, time.Now())
	if err != nil {
		return fmt.Errorf("dialing through the relay: %w", err)
	}
	l.conn = conn
	l.exp.Register("alpha_client_endpoint", conn.Endpoint().Telemetry())
	if l.sess, err = accept(l.srv, spans, 0); err != nil {
		return err
	}

	// Every op the run can attempt: maxRate bounds the rate, and the
	// generators stop at the end of the window.
	l.tr = newTracker(spec.inFlight, spec.deadline, int(spec.maxRate*(spec.warm+l.p.window).Seconds()))
	l.wg.Add(3)
	go l.consume()
	go l.drainClient()
	go l.expire()
	l.gens.Add(1)
	if spec.inFlight > 0 {
		go l.closedLoop()
	} else {
		l.arrivals = l.p.gen.Arrivals(spec.rate, spec.warm+l.p.window+time.Second)
		l.lag = resident[float64](len(l.arrivals))
		go l.openLoop(time.Now())
	}
	if spec.hostileRate > 0 {
		assoc := conn.Endpoint().Assoc()
		n := int(spec.hostileRate * (spec.warm + l.p.window + time.Second).Seconds())
		for k := 0; k < n; k++ {
			l.forged = append(l.forged, l.p.gen.Hostile(uint64(k), assoc, true))
		}
		for k := 0; k < int(float64(n)*spec.hsRate/spec.hostileRate); k++ {
			l.forgedHS = append(l.forgedHS, l.p.gen.HostileHS1(uint64(k)))
		}
		l.gens.Add(1)
		go l.hostileLoop()
	}
	time.Sleep(spec.warm)
	return nil
}

// accept waits for the server to surface the next association.
func accept(srv *udptransport.Server, spans *spanLog, id uint64) (*udptransport.Session, error) {
	type res struct {
		s   *udptransport.Session
		err error
	}
	ch := make(chan res, 1)
	t0 := time.Now()
	go func() {
		s, err := srv.Accept()
		ch <- res{s, err}
	}()
	select {
	case r := <-ch:
		spans.add("udptransport.Accept", id, t0, time.Now())
		return r.s, r.err
	case <-time.After(10 * time.Second):
		srv.Close() // unblocks Accept
		<-ch
		return nil, errors.New("server never surfaced the association")
	}
}

// send hands message i to the client Conn with its clock started at t0.
func (l *streamLive) send(i int, t0 time.Time, buf []byte) []byte {
	buf = l.p.gen.Payload(buf, uint64(i), l.spec.size)
	l.tr.started(i, t0)
	s0 := time.Now()
	_, err := l.conn.Send(buf)
	if l.p.spans != nil {
		l.p.spans.add("udptransport.Send", uint64(i), s0, time.Now())
	}
	if err != nil {
		l.tr.fail(i) // the engine refused it: the message can never arrive
	}
	return buf
}

// closedLoop keeps the window full: a message's slot comes back when it
// is delivered or fails.
func (l *streamLive) closedLoop() {
	defer l.gens.Done()
	buf := make([]byte, 0, l.spec.size)
	for {
		i, ok := l.tr.acquire()
		if !ok {
			return
		}
		buf = l.send(i, time.Now(), buf)
	}
}

// openLoop sends each message at its seeded due time, late if it must,
// and times it from when it was due. It waits in nanosleep on its own OS
// thread rather than on a runtime timer: an idle Go runtime wakes timers
// with millisecond granularity, which at a 0.5 ms mean gap would make the
// generator's own lateness most of the measured latency.
func (l *streamLive) openLoop(start time.Time) {
	defer l.gens.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]byte, 0, l.spec.size)
	for _, at := range l.arrivals {
		due := start.Add(at)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the loop resumes it
		}
		select {
		case <-l.stop:
			return
		default:
		}
		i, ok := l.tr.acquire()
		if !ok {
			return
		}
		if l.tr.measuring() {
			l.lagMu.Lock()
			l.lag = append(l.lag, float64(time.Since(due))/1e6)
			l.lagMu.Unlock()
		}
		buf = l.send(i, due, buf)
	}
}

// hostileLoop fires the seeded forgeries at the relay, and the forged
// handshakes at the server, from the client's own socket at fixed rates.
func (l *streamLive) hostileLoop() {
	defer l.gens.Done()
	tick := time.NewTicker(time.Duration(float64(time.Second) / l.spec.hostileRate))
	defer tick.Stop()
	hs := 0
	for k, raw := range l.forged {
		select {
		case <-l.stop:
			return
		case <-tick.C:
		}
		// A refused write only means less hostile traffic; the relay's
		// and the admission tier's drop counters show what arrived.
		_, _ = l.cliPC.WriteTo(raw, l.relAt)
		for due := len(l.forgedHS) * (k + 1) / len(l.forged); hs < due; hs++ {
			_, _ = l.cliPC.WriteTo(l.forgedHS[hs], l.srvAt)
		}
	}
}

// consume checks every payload the server delivers and resolves its op.
func (l *streamLive) consume() {
	defer l.wg.Done()
	for {
		select {
		case <-l.done:
			return
		case ev := <-l.sess.Events():
			if ev.Kind != core.EventDelivered {
				continue
			}
			t0 := time.Now()
			idx, ok := l.p.gen.Check(ev.Payload, l.spec.size)
			switch {
			case idx&hostileBit != 0:
				l.hostile.Add(1)
			case !ok:
				l.bad.Add(1)
			case !l.tr.deliver(int(idx), t0):
				l.unknown.Add(1)
			}
			if l.p.spans != nil {
				l.p.spans.add("udptransport.Event", idx, t0, time.Now())
			}
		}
	}
}

// drainClient keeps the client's event channel empty, as an application
// reading its acks would.
func (l *streamLive) drainClient() {
	defer l.wg.Done()
	for {
		select {
		case <-l.done:
			return
		case <-l.conn.Events():
		}
	}
}

func (l *streamLive) expire() {
	defer l.wg.Done()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-l.done:
			return
		case now := <-tick.C:
			l.tr.expire(now)
		}
	}
}

func (l *streamLive) measure(window time.Duration) *passResult {
	r := &passResult{window: window}
	var err error
	if r.s0, err = collect(l.exp); err != nil {
		r.problems = append(r.problems, "collecting metrics: "+err.Error())
	}
	d0 := l.srv.Telemetry().DispatchLatency.Snapshot()
	su0 := l.in.read()
	l.p.spans.reset()
	if !l.mint[0].IsZero() {
		// The association's one token was minted at set-up; keep its span.
		l.p.spans.add("admission.Mint", 0, l.mint[0], l.mint[1])
	}
	us := runPhases(window, []*tracker{l.tr}, nil)
	su1 := l.in.read()
	d1 := l.srv.Telemetry().DispatchLatency.Snapshot()
	r.dispatchP99us = histP(d0, d1, 99) / 1e3
	for i := range r.suites {
		r.suites[i] = su1[i].sub(su0[i])
	}
	for _, o := range l.obs {
		s, e := o.rates(us[len(us)-1].at, window)
		r.spansPerSec += s
		r.tracerPerSec += e
	}
	if r.s1, err = collect(l.exp); err != nil {
		r.problems = append(r.problems, "collecting metrics: "+err.Error())
	}

	// Drain: no new messages; every measured one is delivered or fails.
	close(l.stop)
	l.tr.close()
	l.gens.Wait()
	for end := time.Now().Add(l.spec.deadline + time.Second); l.tr.unresolved() > 0 && time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
	}
	books := l.tr.result()
	r.fill(us, books, books)
	r.lag = sortedCopy(l.lag)
	final, err := collect(l.exp)
	if err != nil {
		r.problems = append(r.problems, "collecting metrics: "+err.Error())
	}
	r.problems = append(r.problems, checkInvariants(r.s0, final)...)
	r.problems = append(r.problems, l.checks()...)
	return r
}

// checks lists the output checks that failed.
func (l *streamLive) checks() []string {
	var out []string
	if n := l.tr.unresolved(); n > 0 {
		out = append(out, fmt.Sprintf("%d measured messages never resolved", n))
	}
	if n := l.bad.Load(); n > 0 {
		out = append(out, fmt.Sprintf("%d delivered payloads differ from their generated bytes", n))
	}
	if n := l.hostile.Load(); n > 0 {
		out = append(out, fmt.Sprintf("%d forged payloads were delivered", n))
	}
	if n := l.unknown.Load(); n > 0 {
		out = append(out, fmt.Sprintf("%d deliveries of unsent or already delivered messages", n))
	}
	return out
}

func (l *streamLive) close() {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	if l.tr != nil {
		l.tr.close()
	}
	l.gens.Wait()
	close(l.done)
	l.wg.Wait()
	if l.conn != nil {
		l.conn.Close()
	} else if l.cliPC != nil {
		l.cliPC.Close()
	}
	if l.rel != nil {
		l.rel.Close()
	}
	if l.srv != nil {
		l.srv.Close()
	}
}
