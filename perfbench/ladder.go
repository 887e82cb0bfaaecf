package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/relay"
	"alpha/internal/udpio"
)

// The engine ladder replays a workload's seeded inputs through the
// public calls of the layers beneath udptransport, one layer added per
// rung, with a span around every call:
//
//	rung 1 (engine): core only, datagrams handed between two endpoints
//	rung 2 (+relay): every datagram also passes relay.ProcessFrom
//	rung 3 (+udpio): every hop crosses a loopback socket through
//	                 udpio.WriteBatch and udpio.ReadBatch
//
// It runs in lockstep on one goroutine: each step (an exchange, a
// message, an association) is pumped until nothing is left in flight, so
// span self time is exactly the layer's own time.
const (
	rungEngine = iota + 1
	rungRelay
	rungUDPIO
)

var rungNames = map[int]string{rungEngine: "engine", rungRelay: "relay", rungUDPIO: "udpio"}

// rungResult is what one rung measured.
type rungResult struct {
	ops   int
	log   *spanLog
	newEP spanAgg // core.NewEndpoint, set-up included
	suite [3]suiteCounts
}

// perOp returns the summed time of the named spans per op, in µs.
func (r *rungResult) perOp(names ...string) float64 {
	if r == nil || r.ops == 0 {
		return 0
	}
	var d time.Duration
	for _, n := range names {
		d += r.log.total(n).busy
	}
	return float64(d) / 1e3 / float64(r.ops)
}

// mean returns the mean duration of one span name in µs.
func (r *rungResult) mean(name string) float64 {
	if r == nil {
		return 0
	}
	a := r.log.total(name)
	if a.n == 0 {
		return 0
	}
	return float64(a.busy) / 1e3 / float64(a.n)
}

var (
	coreSpans  = []string{"core.NewEndpoint", "core.StartHandshake", "core.Send", "core.Flush", "core.Poll", "core.Handle"}
	relaySpans = []string{"relay.ProcessFrom.forward", "relay.ProcessFrom.drop"}
	udpioSpans = []string{"udpio.WriteBatch", "udpio.ReadBatch"}
	// ladderSpans is every span a rung records after set-up.
	ladderSpans = append(append(append([]string(nil), coreSpans...), relaySpans...), udpioSpans...)
)

// ladderResult holds the three rungs.
type ladderResult struct {
	rungs    [4]*rungResult // indexed by rung
	problems []string
}

// rig is one rung's plumbing between a client endpoint (side 0) and a
// server endpoint (side 2), with the relay (side 1) in between from rung 2.
type rig struct {
	rung  int
	log   *spanLog
	in    instruments
	gen   *Gen
	size  int
	ep    [3]*core.Endpoint
	rel   *relay.Relay
	pcs   [3]net.PacketConn
	io    [3]udpio.Conn
	rx    [3][]udpio.Message
	ops   int // payloads delivered at the server
	bad   int // delivered payloads that fail the check
	fault error
}

func newRig(rung int, p *passConfig, size int, rcfg relay.Config) (*rig, error) {
	r := &rig{rung: rung, log: newSpanLog(1 << 14), in: newInstruments(true), gen: p.gen, size: size}
	if rung >= rungRelay {
		rcfg.SuiteOverride = r.in.override()
		r.rel = relay.New(rcfg)
	}
	if rung >= rungUDPIO {
		for i := range r.pcs {
			pc, err := listen()
			if err != nil {
				r.close()
				return nil, err
			}
			r.pcs[i] = pc
			t0 := time.Now()
			r.io[i] = udpio.Wrap(pc, udpio.DefaultBatch, nil)
			r.log.add("udpio.Wrap", 0, t0, time.Now())
			r.rx[i] = make([]udpio.Message, udpio.DefaultBatch)
			for j := range r.rx[i] {
				r.rx[i][j].Buf = make([]byte, packet.MaxPacketSize)
			}
		}
	}
	return r, nil
}

func (r *rig) close() {
	for i, pc := range r.pcs {
		if pc != nil {
			udpio.CloseEngine(r.io[i])
			pc.Close()
		}
	}
}

// call runs f inside a span of the given name.
func (r *rig) call(name string, f func()) {
	t0 := time.Now()
	f()
	r.log.add(name, 0, t0, time.Now())
}

// newEndpoint builds side's endpoint for cfg, with the rung's suite.
func (r *rig) newEndpoint(side int, cfg core.Config) error {
	cfg.Suite = r.in.suite(side)
	var err error
	r.call("core.NewEndpoint", func() { r.ep[side], err = core.NewEndpoint(cfg) })
	return err
}

// handshake establishes the two endpoints through the rung's path.
func (r *rig) handshake() error {
	var hs1 []byte
	var err error
	r.call("core.StartHandshake", func() { hs1, err = r.ep[0].StartHandshake(time.Now()) })
	if err != nil {
		return err
	}
	r.route(0, [][]byte{hs1})
	if r.fault == nil && !(r.ep[0].Established() && r.ep[2].Established()) {
		r.fault = errors.New("ladder handshake did not establish")
	}
	return r.fault
}

// send queues one seeded message on the client.
func (r *rig) send(i uint64, buf []byte) []byte {
	buf = r.gen.Payload(buf, i, r.size)
	var err error
	r.call("core.Send", func() { _, err = r.ep[0].Send(time.Now(), buf) })
	if err != nil && r.fault == nil {
		r.fault = fmt.Errorf("ladder send: %w", err)
	}
	return buf
}

// flush forces the client's partial batch out and pumps to quiescence.
func (r *rig) flush() {
	r.call("core.Flush", func() { r.ep[0].Flush(time.Now()) })
	r.pump(0)
}

// pump drains side's outbox along the path.
func (r *rig) pump(side int) {
	var out [][]byte
	r.call("core.Poll", func() { out, _ = r.ep[side].Poll(time.Now()) })
	if len(out) > 0 {
		r.route(side, out)
	}
}

// route carries datagrams from side to the opposite endpoint, through the
// relay from rung 2, then lets that endpoint answer.
func (r *rig) route(from int, dgs [][]byte) {
	if r.fault != nil {
		return
	}
	to := 2 - from
	if r.rel != nil {
		got := r.transfer(from, 1, dgs)
		fwd := make([][]byte, 0, len(got))
		up := from / 2
		for _, d := range got {
			var dec relay.Decision
			t0 := time.Now()
			dec = r.rel.ProcessFrom(t0, up, d)
			name := "relay.ProcessFrom.drop"
			if dec.Verdict == relay.Forward {
				name = "relay.ProcessFrom.forward"
				if dec.Rewritten != nil {
					d = append([]byte(nil), dec.Rewritten...)
				}
				fwd = append(fwd, d)
			}
			r.log.add(name, 0, t0, time.Now())
		}
		if len(fwd) == 0 {
			return
		}
		dgs = r.transfer(1, to, fwd)
	} else {
		dgs = r.transfer(from, to, dgs)
	}
	if r.fault != nil {
		return
	}
	for _, d := range dgs {
		var evs []core.Event
		r.call("core.Handle", func() { evs, _ = r.ep[to].Handle(time.Now(), d) })
		for _, ev := range evs {
			if ev.Kind != core.EventDelivered || to != 2 {
				continue
			}
			if _, ok := r.gen.Check(ev.Payload, r.size); ok {
				r.ops++
			} else {
				r.bad++
			}
		}
	}
	r.pump(to)
}

// transfer moves datagrams from one side to another: in memory below rung
// 3, over loopback sockets from rung 3. It returns the datagrams as the
// receiving side sees them.
func (r *rig) transfer(from, to int, dgs [][]byte) [][]byte {
	if r.rung < rungUDPIO {
		return dgs
	}
	var out [][]byte
	for len(dgs) > 0 {
		n := len(dgs)
		if n > udpio.DefaultBatch {
			n = udpio.DefaultBatch
		}
		ms := make([]udpio.Message, n)
		for i, d := range dgs[:n] {
			ms[i] = udpio.Message{Buf: d, N: len(d), Addr: r.pcs[to].LocalAddr()}
		}
		var err error
		r.call("udpio.WriteBatch", func() { _, err = r.io[from].WriteBatch(ms) })
		if err != nil {
			r.fault = fmt.Errorf("ladder write: %w", err)
			return nil
		}
		for got := 0; got < n; {
			var k int
			r.call("udpio.ReadBatch", func() { k, err = r.io[to].ReadBatch(r.rx[to][got:n]) })
			if err != nil {
				r.fault = fmt.Errorf("ladder read: %w", err)
				return nil
			}
			got += k
		}
		for _, m := range r.rx[to][:n] {
			out = append(out, append([]byte(nil), m.Buf[:m.N]...))
		}
		dgs = dgs[n:]
	}
	return out
}

// runLadder runs the three rungs, splitting budget between them. step
// performs one unit of the workload on a rig and reports false when the
// rig can take no more (chain exhausted); setup builds a rig's endpoints.
// An op is a delivered message, or a completed step when perStep is set.
func runLadder(p *passConfig, size int, budget time.Duration, rcfg relay.Config, perStep bool,
	setup func(r *rig) error, step func(r *rig, i uint64) bool) (*ladderResult, error) {
	res := &ladderResult{}
	for rung := rungEngine; rung <= rungUDPIO; rung++ {
		r, err := newRig(rung, p, size, rcfg)
		if err != nil {
			return nil, err
		}
		if r.rung >= rungUDPIO {
			for _, pc := range r.pcs {
				_ = pc.SetReadDeadline(time.Now().Add(budget + 10*time.Second)) // a lost datagram must not hang the run
			}
		}
		err = setup(r)
		if err == nil {
			newEP := r.log.total("core.NewEndpoint")
			r.log.reset()
			su0 := r.in.read()
			steps := 0
			for i, end := uint64(0), time.Now().Add(budget/3); time.Now().Before(end) && r.fault == nil; i++ {
				if !step(r, i) {
					break
				}
				steps++
			}
			su1 := r.in.read()
			rr := &rungResult{ops: r.ops, log: r.log}
			if perStep {
				rr.ops = steps
			}
			after := r.log.total("core.NewEndpoint")
			rr.newEP = spanAgg{n: newEP.n + after.n, busy: newEP.busy + after.busy}
			for i := range rr.suite {
				rr.suite[i] = su1[i].sub(su0[i])
			}
			res.rungs[rung] = rr
			err = r.fault
		}
		r.close()
		if err != nil {
			return nil, fmt.Errorf("ladder rung %s: %w", rungNames[rung], err)
		}
		if r.bad > 0 {
			res.problems = append(res.problems, fmt.Sprintf("ladder rung %s delivered %d payloads that fail the check", rungNames[rung], r.bad))
		}
		if p.spans != nil {
			if err := r.log.write(fmt.Sprintf("%s.ladder-%s.tsv", p.spansPath, rungNames[rung])); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// streamLadder replays a stream workload: bulk steps one full exchange of
// batch messages, signal one message plus its share of forgeries.
func streamLadder(spec streamSpec) func(p *passConfig, budget time.Duration) (*ladderResult, error) {
	return func(p *passConfig, budget time.Duration) (*ladderResult, error) {
		cfg := core.Config{Mode: spec.mode, BatchSize: spec.batch, Reliable: true,
			ChainLen: chainLen(spec.maxRate, budget, spec.batch)}
		buf := make([]byte, 0, spec.size)
		setup := func(r *rig) error {
			if err := r.newEndpoint(0, cfg); err != nil {
				return err
			}
			if err := r.newEndpoint(2, cfg); err != nil {
				return err
			}
			return r.handshake()
		}
		step := func(r *rig, i uint64) bool {
			if r.ep[0].ChainRemaining() < 4 {
				return false
			}
			for k := uint64(0); k < uint64(spec.batch); k++ {
				buf = r.send(i*uint64(spec.batch)+k, buf)
			}
			r.flush()
			// Forgeries at the workload's ratio to legitimate messages.
			if spec.hostileRate > 0 {
				ratio := spec.hostileRate / spec.rate
				for k := uint64(float64(i) * ratio); k < uint64(float64(i+1)*ratio); k++ {
					r.route(0, [][]byte{p.gen.Hostile(k, r.ep[0].Assoc(), true)})
				}
			}
			return true
		}
		rcfg := relay.Config{Strict: spec.strict, UnsolicitedS1Rate: spec.s1Rate}
		return runLadder(p, spec.size, budget, rcfg, false, setup, step)
	}
}

// churnLadder replays churn: every step builds both endpoints, shakes
// hands and exchanges the association's messages.
func churnLadder(p *passConfig, budget time.Duration) (*ladderResult, error) {
	buf := make([]byte, 0, churnSize)
	setup := func(r *rig) error { return nil }
	step := func(r *rig, i uint64) bool {
		cfg := core.Config{Mode: packet.ModeC, BatchSize: churnMsgs, Reliable: true, ChainLen: churnChainLen}
		if r.newEndpoint(0, cfg) != nil || r.newEndpoint(2, cfg) != nil || r.handshake() != nil {
			if r.fault == nil {
				r.fault = errors.New("ladder association set-up failed")
			}
			return false
		}
		for k := uint64(0); k < churnMsgs; k++ {
			buf = r.send(i*churnMsgs+k, buf)
		}
		r.flush()
		return true
	}
	return runLadder(p, churnSize, budget, relay.Config{Strict: true}, true, setup, step)
}
