// In-memory protocol driver: two endpoints and an optional relay with
// manual packet shuttling, used by the table experiments for precise
// measurement without simulator scheduling in the way.

package main

import (
	"fmt"
	"time"

	"alpha/internal/core"
	"alpha/internal/packet"
	"alpha/internal/relay"
)

// driver pumps packets between endpoint a (initiator/signer) and endpoint b
// (responder/verifier), optionally passing everything through a relay.
type driver struct {
	now  time.Time
	a, b *core.Endpoint
	r    *relay.Relay

	// holdTypes buffers matching a->b packets instead of delivering
	// them, so experiments can freeze the protocol mid-exchange.
	holdTypes map[packet.Type]bool
	held      [][]byte

	aEvents, bEvents []core.Event
}

// newDriver creates the endpoints, performs the handshake and returns the
// ready driver. Separate configs allow per-endpoint instrumented suites.
func newDriver(cfgA, cfgB core.Config, relayCfg *relay.Config) (*driver, error) {
	a, err := core.NewEndpoint(cfgA)
	if err != nil {
		return nil, err
	}
	b, err := core.NewEndpoint(cfgB)
	if err != nil {
		return nil, err
	}
	d := &driver{
		now:       time.Unix(1_700_000_000, 0),
		a:         a,
		b:         b,
		holdTypes: make(map[packet.Type]bool),
	}
	if relayCfg != nil {
		d.r = relay.New(*relayCfg)
	}
	hs1, err := a.StartHandshake(d.now)
	if err != nil {
		return nil, err
	}
	d.toB(hs1)
	d.pump(40)
	if !a.Established() || !b.Established() {
		return nil, fmt.Errorf("driver handshake failed")
	}
	return d, nil
}

// hold freezes endpoint delivery of the given packet types (both
// directions). The relay still observes held packets — it sits mid-path —
// so experiments can freeze the endpoints' protocol state while measuring
// relay state.
func (d *driver) hold(types ...packet.Type) {
	for _, t := range types {
		d.holdTypes[t] = true
	}
}

// toB delivers one datagram to b, via the relay if configured.
func (d *driver) toB(raw []byte) {
	if d.r != nil {
		if dec := d.r.Process(d.now, raw); dec.Verdict != relay.Forward {
			return
		}
	}
	var p packet.Packet
	if err := p.Decode(raw); err == nil && d.holdTypes[p.Type] {
		d.held = append(d.held, raw)
		return
	}
	evs, _ := d.b.Handle(d.now, raw)
	d.bEvents = append(d.bEvents, evs...)
}

// toA delivers one datagram to a, via the relay if configured.
func (d *driver) toA(raw []byte) {
	if d.r != nil {
		if dec := d.r.Process(d.now, raw); dec.Verdict != relay.Forward {
			return
		}
	}
	var p packet.Packet
	if err := p.Decode(raw); err == nil && d.holdTypes[p.Type] {
		d.held = append(d.held, raw)
		return
	}
	evs, _ := d.a.Handle(d.now, raw)
	d.aEvents = append(d.aEvents, evs...)
}

// pump advances virtual time and exchanges pending packets until quiet or
// maxRounds elapsed.
func (d *driver) pump(maxRounds int) {
	for i := 0; i < maxRounds; i++ {
		d.now = d.now.Add(5 * time.Millisecond)
		outA, evA := d.a.Poll(d.now)
		d.aEvents = append(d.aEvents, evA...)
		outB, evB := d.b.Poll(d.now)
		d.bEvents = append(d.bEvents, evB...)
		if len(outA) == 0 && len(outB) == 0 {
			return
		}
		for _, raw := range outA {
			d.toB(raw)
		}
		for _, raw := range outB {
			d.toA(raw)
		}
	}
}

// exchange sends msgs from a to b as one batch and pumps to completion.
func (d *driver) exchange(msgs [][]byte) error {
	for _, m := range msgs {
		if _, err := d.a.Send(d.now, m); err != nil {
			return err
		}
	}
	d.a.Flush(d.now)
	d.pump(60)
	return nil
}

// delivered counts b's Delivered events so far.
func (d *driver) delivered() int {
	n := 0
	for _, ev := range d.bEvents {
		if ev.Kind == core.EventDelivered {
			n++
		}
	}
	return n
}
