package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"alpha/internal/admission"
	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/telemetry"
	"alpha/internal/udptransport"
)

// Churn: serial associations straight to the Server, each on a fresh
// socket with an anchor-bound connect token, four 64 B ALPHA-C messages,
// acks awaited, then closed.
const (
	churnMsgs     = 4
	churnSize     = 64
	churnChainLen = 4096 // alphanode's value
	churnDeadline = 100 * time.Millisecond
	churnWarm     = 50 // associations completed during set-up
	churnRotate   = time.Second
	// churnMaxRate bounds associations per second, to size the books: an
	// association generates two 4096-element chains and shakes hands.
	churnMaxRate = 2000
)

type churnLive struct {
	p  *passConfig
	in instruments

	srv    *udptransport.Server
	srvAt  net.Addr
	adm    *admission.Verifier
	issuer *admission.Issuer
	exp    *telemetry.Exporter
	client *telemetry.EndpointMetrics // retired client endpoints, summed

	at *tracker // one op per association; limit 1, so serial
	mt *tracker // one op per message, for latency and delivery checks

	hsMu sync.Mutex
	hs   []float64 // handshake ms of measured associations

	bad, unknown atomic.Int64

	done chan struct{}
	wg   sync.WaitGroup
}

func setupChurn(p *passConfig) (live, error) {
	l := &churnLive{p: p, in: newInstruments(p.spans != nil), done: make(chan struct{}), client: telemetry.NewEndpointMetrics()}
	if err := l.start(); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *churnLive) config(role int) core.Config {
	return core.Config{
		Suite:     l.in.suite(role),
		Mode:      packet.ModeC,
		BatchSize: churnMsgs,
		Reliable:  true,
		ChainLen:  churnChainLen,
	}
}

func (l *churnLive) start() error {
	var key admission.Key
	copy(key[:], l.p.gen.pool)
	var err error
	if l.issuer, err = admission.NewIssuer(1, key); err != nil {
		return err
	}
	if l.adm, err = admission.NewVerifier(admission.VerifierConfig{Keys: map[uint8]admission.Key{1: key}, Require: true}); err != nil {
		return err
	}
	pc, err := listen()
	if err != nil {
		return err
	}
	l.srvAt = pc.LocalAddr()
	l.srv = udptransport.NewServerWith(l.config(roleServer),
		udptransport.ServerOptions{Admission: l.adm, RotateInterval: churnRotate}, pc)
	l.exp = telemetry.NewExporter()
	l.exp.Register("alpha_transport", l.srv.Telemetry())
	l.exp.Register("alpha_admission", l.adm.Metrics())
	l.exp.Register("alpha_server_endpoint", telemetry.WalkerFunc(func(v telemetry.Visitor) {
		l.srv.EndpointTelemetry().Walk(v)
	}))
	l.exp.Register("alpha_client_endpoint", l.client)

	most := churnWarm + int(churnMaxRate*l.p.window.Seconds())
	l.at = newTracker(1, churnDeadline, most)
	l.mt = newTracker(0, churnDeadline, churnMsgs*most)
	l.wg.Add(2)
	go l.acceptLoop()
	go l.expire()
	for i := 0; i < churnWarm; i++ {
		l.associate()
	}
	return nil
}

// associate runs one association to completion or to its deadline.
func (l *churnLive) associate() {
	i, ok := l.at.acquire()
	if !ok {
		return
	}
	id := uint64(i)
	spans := l.p.spans
	t0 := time.Now()
	l.at.started(i, t0)
	deadline := t0.Add(churnDeadline)
	pc, err := listen()
	if err != nil {
		l.at.fail(i)
		return
	}
	local := pc.LocalAddr().(*net.UDPAddr)
	cfg := l.config(roleClient)
	cfg.TokenSource = func(sig, ack []byte) ([]byte, error) {
		m0 := time.Now()
		tok, err := l.issuer.Mint(m0, time.Minute, local.IP, local.Port, sig, ack)
		spans.add("admission.Mint", id, m0, time.Now())
		return tok, err
	}
	d0 := time.Now()
	conn, err := udptransport.Dial(pc, l.srvAt, cfg, time.Until(deadline))
	spans.add("udptransport.Dial", id, d0, time.Now())
	if err != nil {
		pc.Close() // Dial leaves the socket open when the endpoint cannot be built
		l.noteHandshake(float64(churnDeadline) / 1e6)
		l.at.fail(i)
		return
	}
	l.noteHandshake(float64(time.Since(t0)) / 1e6)

	buf := make([]byte, 0, churnSize)
	for k := 0; k < churnMsgs; k++ {
		j, _ := l.mt.acquire() // unbounded: never waits
		buf = l.p.gen.Payload(buf, uint64(j), churnSize)
		s0 := time.Now()
		l.mt.started(j, s0)
		_, err := conn.Send(buf)
		spans.add("udptransport.Send", id, s0, time.Now())
		if err != nil {
			l.mt.fail(j)
		}
	}
	f0 := time.Now()
	conn.Flush()
	spans.add("udptransport.Flush", id, f0, time.Now())

	acked := 0
	timer := time.NewTimer(time.Until(deadline))
wait:
	for acked < churnMsgs {
		select {
		case ev := <-conn.Events():
			e0 := time.Now()
			if ev.Kind == core.EventAcked {
				acked++
			}
			spans.add("udptransport.Event", id, e0, time.Now())
		case <-timer.C:
			break wait
		}
	}
	timer.Stop()
	c0 := time.Now()
	conn.Close()
	spans.add("udptransport.Close", id, c0, time.Now())
	conn.Endpoint().Telemetry().AddTo(l.client)
	if acked == churnMsgs {
		l.at.deliver(i, time.Now())
	} else {
		l.at.fail(i)
	}
}

func (l *churnLive) noteHandshake(ms float64) {
	if !l.at.measuring() {
		return
	}
	l.hsMu.Lock()
	l.hs = append(l.hs, ms)
	l.hsMu.Unlock()
}

// acceptLoop serves every association the server surfaces.
func (l *churnLive) acceptLoop() {
	defer l.wg.Done()
	for {
		sess, err := l.srv.Accept()
		if err != nil {
			return
		}
		l.wg.Add(1)
		go l.serve(sess)
	}
}

// serve checks the association's payloads and closes it after the last
// one, as a request-scoped responder would. Associations that never
// finish leave on rotation expiry or teardown.
func (l *churnLive) serve(sess *udptransport.Session) {
	defer l.wg.Done()
	got := 0
	for got < churnMsgs {
		select {
		case <-l.done:
			return
		case ev := <-sess.Events():
			switch ev.Kind {
			case core.EventExpired:
				return
			case core.EventDelivered:
				got++
				idx, ok := l.p.gen.Check(ev.Payload, churnSize)
				switch {
				case !ok:
					l.bad.Add(1)
				case !l.mt.deliver(int(idx), time.Now()):
					l.unknown.Add(1)
				}
			}
		}
	}
	sess.Close()
}

func (l *churnLive) expire() {
	defer l.wg.Done()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-l.done:
			return
		case now := <-tick.C:
			l.mt.expire(now)
		}
	}
}

func (l *churnLive) measure(window time.Duration) *passResult {
	r := &passResult{window: window}
	var err error
	if r.s0, err = collect(l.exp); err != nil {
		r.problems = append(r.problems, "collecting metrics: "+err.Error())
	}
	d0 := l.srv.Telemetry().DispatchLatency.Snapshot()
	su0 := l.in.read()
	l.p.spans.reset()
	us := runPhases(window, []*tracker{l.at, l.mt}, l.associate)
	su1 := l.in.read()
	for i := range r.suites {
		r.suites[i] = su1[i].sub(su0[i])
	}
	r.dispatchP99us = histP(d0, l.srv.Telemetry().DispatchLatency.Snapshot(), 99) / 1e3
	if r.s1, err = collect(l.exp); err != nil {
		r.problems = append(r.problems, "collecting metrics: "+err.Error())
	}
	l.at.close()
	l.mt.close()
	for end := time.Now().Add(churnDeadline + time.Second); l.mt.unresolved() > 0 && time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
	}
	r.fill(us, l.at.result(), l.mt.result())
	l.hsMu.Lock()
	r.hs = sortedCopy(l.hs)
	l.hsMu.Unlock()
	final, err := collect(l.exp)
	if err != nil {
		r.problems = append(r.problems, "collecting metrics: "+err.Error())
	}
	r.problems = append(r.problems, checkInvariants(r.s0, final)...)
	if n := l.mt.unresolved(); n > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d measured messages never resolved", n))
	}
	if n := l.bad.Load(); n > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d delivered payloads differ from their generated bytes", n))
	}
	if n := l.unknown.Load(); n > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d deliveries of unsent or already delivered messages", n))
	}
	return r
}

func (l *churnLive) close() {
	if l.at != nil {
		l.at.close()
		l.mt.close()
	}
	if l.srv != nil {
		l.srv.Close() // ends acceptLoop
	}
	close(l.done)
	l.wg.Wait()
}
